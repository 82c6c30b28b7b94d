package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/vm"
	"repro/internal/vtime"
)

// Call kinds a traced episode records.
const (
	kindHit      = iota // element accessor that left the thread's Misses unchanged
	kindFault           // element accessor that raised Misses
	kindSpan            // bulk ReadFloat64s / WriteFloat64s
	kindLock            // Mutex.Lock
	kindUnlock          // Mutex.Unlock
	kindBarrier         // Barrier.Wait
	kindFork            // ForkAS
	kindAlloc           // Malloc / GlobalAlloc / Free
	kindSnapshot        // SnapshotAS
	numKinds
)

var kindNames = [numKinds]string{"hit", "fault", "span", "lock", "unlock", "barrier", "fork", "alloc", "snapshot"}

// span is one recorded call. Host times are ns since the episode began;
// parent indexes the enclosing Lock span in the same thread's list.
type span struct {
	kind               uint8
	parent             int32
	hostStart, hostEnd int64
	virtStart, virtEnd vtime.Time
}

// threadTrace is one thread's span buffer, owned by its goroutine until
// the episode ends.
type threadTrace struct {
	t0    time.Time
	spans []span
}

type tracer struct {
	threads []*threadTrace
}

func (tr *tracer) start(p int, t0 time.Time) {
	tr.threads = make([]*threadTrace, p)
	for i := range tr.threads {
		tr.threads[i] = &threadTrace{t0: t0}
	}
}

// tracedThread records a span around every call the workload makes.
type tracedThread struct {
	*thread
	buf       *threadTrace
	lockStack []int32
}

type mark struct {
	host   time.Time
	virt   vtime.Time
	misses int64
}

func (t *tracedThread) begin() mark {
	return mark{host: time.Now(), virt: t.Clock(), misses: t.Stats().Misses}
}

// end closes a span opened by begin and returns its index.
func (t *tracedThread) end(m mark, kind uint8) int32 {
	now := time.Now()
	parent := int32(-1)
	if n := len(t.lockStack); n > 0 {
		parent = t.lockStack[n-1]
	}
	t.buf.spans = append(t.buf.spans, span{
		kind: kind, parent: parent,
		hostStart: int64(m.host.Sub(t.buf.t0)), hostEnd: int64(now.Sub(t.buf.t0)),
		virtStart: m.virt, virtEnd: t.Clock(),
	})
	return int32(len(t.buf.spans) - 1)
}

// access closes an element-accessor call as a hit or a fault.
func (t *tracedThread) access(m mark) {
	kind := kindHit
	if t.Stats().Misses != m.misses {
		kind = kindFault
	}
	t.end(m, uint8(kind))
}

func (t *tracedThread) ReadBytes(a vm.Addr, buf []byte) {
	m := t.begin()
	t.Thread.ReadBytes(a, buf)
	t.access(m)
}

func (t *tracedThread) WriteBytes(a vm.Addr, data []byte) {
	m := t.begin()
	t.Thread.WriteBytes(a, data)
	t.access(m)
}

func (t *tracedThread) ReadFloat64(a vm.Addr) float64 {
	m := t.begin()
	v := t.Thread.ReadFloat64(a)
	t.access(m)
	return v
}

func (t *tracedThread) WriteFloat64(a vm.Addr, v float64) {
	m := t.begin()
	t.Thread.WriteFloat64(a, v)
	t.access(m)
}

func (t *tracedThread) ReadInt64(a vm.Addr) int64 {
	m := t.begin()
	v := t.Thread.ReadInt64(a)
	t.access(m)
	return v
}

func (t *tracedThread) WriteInt64(a vm.Addr, v int64) {
	m := t.begin()
	t.Thread.WriteInt64(a, v)
	t.access(m)
}

func (t *tracedThread) AddFloat64(a vm.Addr, v float64) float64 {
	m := t.begin()
	r := t.Thread.AddFloat64(a, v)
	t.access(m)
	return r
}

func (t *tracedThread) AddInt64(a vm.Addr, v int64) int64 {
	m := t.begin()
	r := t.Thread.AddInt64(a, v)
	t.access(m)
	return r
}

func (t *tracedThread) ReadFloat64s(a vm.Addr, dst []float64) {
	m := t.begin()
	t.Thread.ReadFloat64s(a, dst)
	t.end(m, kindSpan)
}

func (t *tracedThread) WriteFloat64s(a vm.Addr, src []float64) {
	m := t.begin()
	t.Thread.WriteFloat64s(a, src)
	t.end(m, kindSpan)
}

func (t *tracedThread) Malloc(n int) vm.Addr {
	m := t.begin()
	a := t.Thread.Malloc(n)
	t.end(m, kindAlloc)
	return a
}

func (t *tracedThread) GlobalAlloc(n int) vm.Addr {
	m := t.begin()
	a := t.Thread.GlobalAlloc(n)
	t.end(m, kindAlloc)
	return a
}

func (t *tracedThread) Free(a vm.Addr) {
	m := t.begin()
	t.Thread.Free(a)
	t.end(m, kindAlloc)
}

func (t *tracedThread) SnapshotAS(base vm.Addr, n int) uint64 {
	m := t.begin()
	s := t.Thread.SnapshotAS(base, n)
	t.end(m, kindSnapshot)
	return s
}

func (t *tracedThread) ForkAS(snap uint64) vm.Addr {
	m := t.begin()
	a := t.Thread.ForkAS(snap)
	t.end(m, kindFork)
	return a
}

// spanStats is the median host and virtual duration of one call kind.
type spanStats struct {
	n              int
	hostNs, virtNs float64
}

// summarize returns per-kind medians.
func (tr *tracer) summarize() [numKinds]spanStats {
	var out [numKinds]spanStats
	var host, virt [numKinds][]float64
	for _, tt := range tr.threads {
		for _, s := range tt.spans {
			host[s.kind] = append(host[s.kind], float64(s.hostEnd-s.hostStart))
			virt[s.kind] = append(virt[s.kind], float64(s.virtEnd-s.virtStart))
		}
	}
	for k := range out {
		out[k] = spanStats{n: len(host[k]), hostNs: median(host[k]), virtNs: median(virt[k])}
	}
	return out
}

// write stores every span as CSV, one row per call.
func (tr *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "thread,id,kind,parent,host_start_ns,host_end_ns,virt_start_ns,virt_end_ns")
	for th, tt := range tr.threads {
		for i, s := range tt.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d,%d\n", th, i, kindNames[s.kind], s.parent,
				s.hostStart, s.hostEnd, int64(s.virtStart), int64(s.virtEnd))
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// median returns the middle value (mean of the two middle values).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
