package main

import (
	"fmt"
	"os/exec"
	"strings"
	"time"
)

// hostShares attributes a CPU profile's samples to Go packages by self
// time (the innermost frame of each sample) and to two runtime
// activities by stack (any frame): garbage collection and goroutine
// scheduling. Shares are fractions of all profiled CPU time.
type hostShares struct {
	total float64
	pkg   map[string]float64 // import path -> self CPU time
	gc    float64
	sched float64
}

func (h *hostShares) share(v float64) float64 {
	if h.total == 0 {
		return 0
	}
	return v / h.total
}

// Runtime functions whose presence anywhere on a stack marks the sample
// as garbage-collection or scheduler work.
var (
	gcFrames = map[string]bool{
		"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
		"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.gcMarkDone": true,
		"runtime.gcMarkTermination": true, "runtime.sweepone": true, "runtime.markrootSpans": true,
	}
	schedFrames = map[string]bool{
		"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
		"runtime.goschedImpl": true, "runtime.wakep": true, "runtime.ready": true,
		"runtime.startm": true, "runtime.stopm": true, "runtime.handoffp": true,
		"runtime.runqgrab": true, "runtime.stealWork": true, "runtime.notesleep": true,
		"runtime.notewakeup": true, "runtime.futex": true, "runtime.usleep": true,
		"runtime.osyield": true,
	}
)

// packageOf returns the import path of a Go symbol name such as
// "repro/internal/pagecache.(*Cache).access".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// parseProfile attributes the CPU profile in file. The Go toolchain's
// pprof, which the benchmark is built with, lists every sample's stack
// as text: a separator line, then the sample's CPU time beside its
// innermost frame, then one caller per line.
func parseProfile(file string) (*hostShares, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", file).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", file, err)
	}
	h := &hostShares{pkg: map[string]float64{}}
	var v float64
	var gc, sched bool
	flush := func() {
		switch {
		case gc:
			h.gc += v
		case sched:
			h.sched += v
		}
		v, gc, sched = 0, false, false
	}
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "---") {
			flush()
			continue
		}
		if d, err := time.ParseDuration(f[0]); err == nil && len(f) >= 2 {
			v = float64(d.Nanoseconds())
			h.total += v
			h.pkg[packageOf(f[1])] += v
			f = f[1:]
		} else if v == 0 {
			continue // the header before the first sample
		}
		gc = gc || gcFrames[f[0]]
		sched = sched || schedFrames[f[0]]
	}
	flush()
	if h.total == 0 {
		return nil, fmt.Errorf("go tool pprof -traces %s: no samples", file)
	}
	return h, nil
}
