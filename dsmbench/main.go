// Command dsmbench is the end-to-end and per-layer benchmark of the
// Samhita reproduction. It runs one workload on the sequenced simulated
// fabric and reports both clocks: virtual time (the modelled hardware)
// and host time (what the Go implementation costs). See README.md.
//
//	dsmbench --workload strided|kv|forkstorm --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// traceDir receives the traced run's spans and CPU profile.
const traceDir = ".bench_build/trace"

func main() {
	name := flag.String("workload", "", "workload: strided, kv or forkstorm")
	seed := flag.Uint64("seed", 1, "input seed (KV and fork-storm inputs; strided is seedless)")
	seconds := flag.Int("seconds", 10, "host seconds of timed episodes")
	traced := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "dsmbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "dsmbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// A broken workload fails here, before any timed episode.
	if err := selfTest(w, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
	var res *result
	var err error
	if *traced == 1 {
		res, err = tracedRun(w, *seed)
	} else {
		res, err = timedRun(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dsmbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// episode is one boot -> set-up -> measured phase -> close cycle.
type episode struct {
	phaseTimes
	allocBytes, allocs uint64
	out                outcome
	// exact holds everything that must repeat bit for bit across
	// episodes: virtual metrics, fabric counts and per-layer counters.
	exact map[string]float64
}

func runEpisode(w *workload, seed uint64, sz sizes, tr *tracer) (*episode, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0, cpu0 := time.Now(), processCPU()
	rt, err := core.New(w.config())
	if err != nil {
		return nil, fmt.Errorf("%s: boot: %w", w.name, err)
	}
	v := newPhaseVM(rt, t0, cpu0, tr)
	out, err := w.run(rt, v, seed, sz)
	if err != nil {
		rt.Close()
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	exact := layerCounters(rt, out)
	if err := rt.Close(); err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	runtime.ReadMemStats(&m1)
	pt, ok := v.phases()
	if !ok {
		return nil, fmt.Errorf("%s: not every thread crossed the phase marks", w.name)
	}
	return &episode{
		phaseTimes: pt, out: out, exact: exact,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc, allocs: m1.Mallocs - m0.Mallocs,
	}, nil
}

// selfTest runs a workload at quick size with every output check.
func selfTest(w *workload, seed uint64) error {
	ep, err := runEpisode(w, seed, quickSize, nil)
	if err != nil {
		return fmt.Errorf("selftest: %w", err)
	}
	if ep.out.check != nil {
		return fmt.Errorf("selftest: %w", ep.out.check)
	}
	return nil
}

// checkEpisodes returns the first failed output check, or a difference
// between any episode's exact counters and the first episode's.
func checkEpisodes(eps []*episode) error {
	for i, ep := range eps {
		if ep.out.check != nil {
			return ep.out.check
		}
		for k, v := range ep.exact {
			if u := eps[0].exact[k]; v != u {
				return fmt.Errorf("episode %d: %s = %v, episode 0 had %v", i, k, v, u)
			}
		}
	}
	return nil
}

// timedRun runs whole episodes until their host time reaches budget
// (at least three, so set-up time has a median) and reports the
// end-to-end metrics.
func timedRun(w *workload, seed uint64, budget time.Duration) (*result, error) {
	var eps []*episode
	start := time.Now()
	for len(eps) < 3 || time.Since(start) < budget {
		ep, err := runEpisode(w, seed, fullSize, nil)
		if err != nil {
			return nil, err
		}
		eps = append(eps, ep)
		fmt.Printf("episode %d: setup %.4fs cpu (%.4fs wall) measured %.4fs cpu (%.4fs wall) ops %d failed %d\n",
			len(eps)-1, ep.setup.cpu.Seconds(), ep.setup.wall.Seconds(),
			ep.measured.cpu.Seconds(), ep.measured.wall.Seconds(), ep.out.ops, ep.out.failed)
	}
	rss := peakRSSMB()
	res := &result{Metrics: map[string]metric{}}
	var setups, rates []float64
	var allocBytes, allocs uint64
	for _, ep := range eps {
		setups = append(setups, ep.setup.cpu.Seconds())
		rates = append(rates, float64(ep.out.ops)/ep.measured.cpu.Seconds())
		allocBytes += ep.allocBytes
		allocs += ep.allocs
		res.Attempted += ep.out.ops
		res.Failed += ep.out.failed
	}
	ops := float64(res.Attempted)
	vals := map[string]float64{
		"setup_s":            median(setups),
		"ops_per_s":          median(rates),
		"alloc_bytes_per_op": float64(allocBytes) / ops,
		"allocs_per_op":      float64(allocs) / ops,
		"peak_rss_mb":        rss,
	}
	first := eps[0].exact
	for k, v := range first {
		vals[k] = v
	}
	checkErr := checkEpisodes(eps)
	if w.name == "kv" {
		rate, probes, err := kvMaxRate(seed)
		if err != nil {
			return nil, err
		}
		vals["virt_max_rate_rps"] = rate
		res.Attempted += probes.ops
		res.Failed += probes.failed
		if checkErr == nil {
			checkErr = probes.check
		}
	}
	if checkErr != nil {
		fmt.Println("CHECK FAILED:", checkErr)
	}
	res.Correct = checkErr == nil
	printValues(vals)
	return res, emit(res, endToEnd, vals)
}

// tracedRun reruns the workload three times: untraced (the reference),
// with a span around every call, and under the CPU profiler. Spans and
// profile are separate episodes so neither distorts the other.
func tracedRun(w *workload, seed uint64) (*result, error) {
	plain, err := runEpisode(w, seed, fullSize, nil)
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	traced, err := runEpisode(w, seed, fullSize, tr)
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	profiled, err := runEpisode(w, seed, fullSize, nil)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	stem := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := tr.write(stem + ".spans.csv"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(stem+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, err
	}
	shares, err := parseProfile(stem + ".cpu.pprof")
	if err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s.spans.csv  cpu profile: %s.cpu.pprof\n", stem, stem)

	eps := []*episode{plain, traced, profiled}
	checkErr := checkEpisodes(eps)
	if checkErr != nil {
		fmt.Println("CHECK FAILED:", checkErr)
	}
	res := &result{Correct: checkErr == nil, Metrics: map[string]metric{}}
	for _, ep := range eps {
		res.Attempted += ep.out.ops
		res.Failed += ep.out.failed
	}
	vals := map[string]float64{}
	for k, v := range plain.exact {
		vals[k] = v
	}
	sp := tr.summarize()
	for k, name := range kindNames {
		fmt.Printf("span %-8s n=%-9d host_p50=%.0fns virt_p50=%.0fns\n", name, sp[k].n, sp[k].hostNs, sp[k].virtNs)
		vals["vm."+name+"_host_ns"] = sp[k].hostNs
		vals["vm."+name+"_virt_ns"] = sp[k].virtNs
	}
	for _, l := range []string{"pagecache", "proto", "scl", "simnet", "memserver", "manager", "replog", "core"} {
		vals[l+".host_share"] = shares.share(shares.pkg["repro/internal/"+l])
	}
	vals["runtime.gc_host_share"] = shares.share(shares.gc)
	vals["runtime.sched_host_share"] = shares.share(shares.sched)
	vals["trace.overhead_ratio"] = traced.measured.cpu.Seconds() / plain.measured.cpu.Seconds()
	printShares(shares)
	return res, emit(res, perLayer, vals)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// printValues prints every measured value, one per line, sorted.
func printValues(m map[string]float64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("value %s = %v\n", k, m[k])
	}
}

func printShares(h *hostShares) {
	type kv struct {
		pkg string
		v   float64
	}
	var rows []kv
	for p, v := range h.pkg {
		rows = append(rows, kv{p, v})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	for i, r := range rows {
		if i == 15 {
			break
		}
		fmt.Printf("cpu self %-40s %5.1f%%\n", r.pkg, 100*h.share(r.v))
	}
	fmt.Printf("cpu gc %.1f%% sched %.1f%% (of %.2fs profiled)\n",
		100*h.share(h.gc), 100*h.share(h.sched), h.total/1e9)
}
