package main

import (
	"sync"
	"syscall"
	"time"

	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/vtime"
)

// phaseVM is the pass-through vm.VM every episode runs on. It marks the
// phase boundaries the workloads already declare — the last thread's
// ResetMeasurement ends set-up, the last StopMeasurement ends the
// measured phase — on the wall clock and in process CPU time. It also
// records each thread's virtual clock at barrier exits of the measured
// phase (strided's per-round latency), and, in a traced episode, a span
// around every call the workload makes.
//
// The Samhita sync objects type-assert *core.Thread, so the Mutex,
// Barrier and Cond wrappers hand them the inner thread.
type phaseVM struct {
	vm.VM
	t0   time.Time     // episode start: just before core.New
	cpu0 time.Duration // process CPU time at t0
	tr   *tracer       // nil in untraced episodes

	mu            sync.Mutex
	p             int
	resets, stops int
	setup, stop   phaseMark      // at the latest ResetMeasurement / StopMeasurement
	rounds        [][]vtime.Time // per thread: clock at measured-phase start and each barrier exit
}

// phaseMark is a moment of the episode on both host clocks, as
// offsets from the episode start.
type phaseMark struct{ wall, cpu time.Duration }

// phaseTimes is the host time spent in set-up and in the measured phase.
type phaseTimes struct{ setup, measured phaseMark }

func newPhaseVM(inner vm.VM, t0 time.Time, cpu0 time.Duration, tr *tracer) *phaseVM {
	return &phaseVM{VM: inner, t0: t0, cpu0: cpu0, tr: tr}
}

func (v *phaseVM) now() phaseMark {
	return phaseMark{wall: time.Since(v.t0), cpu: processCPU() - v.cpu0}
}

// processCPU returns the user and system CPU time of the whole process.
// Unlike wall time it leaves out time the machine gave to other guests.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (v *phaseVM) Run(p int, body func(t vm.Thread)) (*stats.Run, error) {
	v.mu.Lock()
	v.p = p
	v.rounds = make([][]vtime.Time, p)
	v.mu.Unlock()
	if v.tr != nil {
		v.tr.start(p, v.t0)
	}
	return v.VM.Run(p, func(t vm.Thread) {
		th := &thread{Thread: t, vm: v}
		if v.tr != nil {
			body(&tracedThread{thread: th, buf: v.tr.threads[t.ID()]})
			return
		}
		body(th)
	})
}

func (v *phaseVM) NewMutex() vm.Mutex          { return &mutex{in: v.VM.NewMutex()} }
func (v *phaseVM) NewBarrier(n int) vm.Barrier { return &barrier{in: v.VM.NewBarrier(n)} }
func (v *phaseVM) NewCond() vm.Cond            { return &cond{in: v.VM.NewCond()} }

// phases returns the host time spent in set-up and in the measured
// phase; ok is false unless every thread crossed both marks.
func (v *phaseVM) phases() (pt phaseTimes, ok bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	ok = v.p > 0 && v.resets == v.p && v.stops == v.p
	return phaseTimes{
		setup:    v.setup,
		measured: phaseMark{wall: v.stop.wall - v.setup.wall, cpu: v.stop.cpu - v.setup.cpu},
	}, ok
}

// roundTimes returns every thread's measured-phase barrier-to-barrier
// virtual round times.
func (v *phaseVM) roundTimes() []int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	var out []int64
	for _, r := range v.rounds {
		for i := 1; i < len(r); i++ {
			out = append(out, int64(r[i]-r[i-1]))
		}
	}
	return out
}

// thread wraps one compute thread; measuring is owned by its goroutine.
type thread struct {
	vm.Thread
	vm        *phaseVM
	measuring bool
	rounds    []vtime.Time
}

func (t *thread) ResetMeasurement() {
	t.Thread.ResetMeasurement()
	t.measuring = true
	t.rounds = append(t.rounds[:0], t.Clock())
	t.vm.mu.Lock()
	t.vm.resets++
	t.vm.setup = t.vm.now() // the last thread to get here ends set-up
	t.vm.mu.Unlock()
}

func (t *thread) StopMeasurement() {
	t.Thread.StopMeasurement()
	t.measuring = false
	t.vm.mu.Lock()
	t.vm.stops++
	t.vm.stop = t.vm.now()
	t.vm.rounds[t.ID()] = t.rounds
	t.vm.mu.Unlock()
}

// unwrap returns the phase thread behind t and, in a traced episode,
// its tracing wrapper.
func unwrap(t vm.Thread) (*thread, *tracedThread) {
	if tt, ok := t.(*tracedThread); ok {
		return tt.thread, tt
	}
	return t.(*thread), nil
}

type mutex struct{ in vm.Mutex }

func (m *mutex) Lock(t vm.Thread) {
	th, tt := unwrap(t)
	if tt == nil {
		m.in.Lock(th.Thread)
		return
	}
	s := tt.begin()
	m.in.Lock(th.Thread)
	tt.lockStack = append(tt.lockStack, tt.end(s, kindLock))
}

func (m *mutex) Unlock(t vm.Thread) {
	th, tt := unwrap(t)
	if tt == nil {
		m.in.Unlock(th.Thread)
		return
	}
	s := tt.begin()
	m.in.Unlock(th.Thread)
	tt.end(s, kindUnlock)
	tt.lockStack = tt.lockStack[:len(tt.lockStack)-1]
}

type barrier struct{ in vm.Barrier }

func (b *barrier) Wait(t vm.Thread) {
	th, tt := unwrap(t)
	if tt == nil {
		b.in.Wait(th.Thread)
	} else {
		s := tt.begin()
		b.in.Wait(th.Thread)
		tt.end(s, kindBarrier)
	}
	if th.measuring {
		th.rounds = append(th.rounds, th.Clock())
	}
}

type cond struct{ in vm.Cond }

func (c *cond) Wait(t vm.Thread, m vm.Mutex) {
	th, _ := unwrap(t)
	c.in.Wait(th.Thread, m.(*mutex).in)
}

func (c *cond) Signal(t vm.Thread) {
	th, _ := unwrap(t)
	c.in.Signal(th.Thread)
}

func (c *cond) Broadcast(t vm.Thread) {
	th, _ := unwrap(t)
	c.in.Broadcast(th.Thread)
}
