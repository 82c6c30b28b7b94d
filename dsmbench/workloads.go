package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/apps/forkstorm"
	"repro/internal/apps/kernels"
	"repro/internal/apps/kv"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vtime"
)

// Topology shared by every workload: QDR InfiniBand, P=16 modelled
// threads, 4 memory servers x 4 shards, 4 manager sync homes (which,
// on the sequenced fabric, turns peer-to-peer lock handoff on).
const (
	threads       = 16
	memServers    = 4
	serverShards  = 4
	managerShards = 4
)

// Input make-up. The strided kernel takes the paper's M, S, B; KV and
// fork-storm inputs are generated from the seed by the workloads'
// own stream generators.
const (
	stridedM, stridedS, stridedB = 10, 2, 256
	stridedR                     = 0.999999

	kvBuckets, kvKeys, kvGetPct = 256, 4096, 90
	kvGapNs                     = 20000 // per-client inter-arrival gap of the timed episodes
	kvReplicas                  = 3

	forkImageBytes = 4 << 20 // striped over the 4 servers: 1 MiB per server
	forkReads      = 4
	forkWrites     = 1
	forkHotBytes   = 96 << 10 // per server, so most sealed frames live in the cold tier
	forkColdPreset = "cold-nvme"
)

// sizes fixes one episode's amount of measured work.
type sizes struct {
	stridedRounds int // N: barrier rounds of the strided kernel
	kvOps         int // requests per KV client
	forks         int // forks in the storm
}

var (
	fullSize  = sizes{stridedRounds: 300, kvOps: 2048, forks: 3000}
	quickSize = sizes{stridedRounds: 3, kvOps: 32, forks: 64}
)

// outcome is what one workload episode reports besides its runtime's
// counters.
type outcome struct {
	ops, failed int64 // measured operations attempted, and how many failed
	run         *stats.Run
	p50, p99    vtime.Time // virtual latency quantiles
	samples     int64      // latency samples behind them
	check       error      // first failed output check
}

type workload struct {
	name     string
	replicas int   // manager replicas
	hotBytes int64 // per-server hot budget (0 = untiered)
	run      func(rt *core.Runtime, v *phaseVM, seed uint64, sz sizes) (outcome, error)
}

var workloads = map[string]*workload{
	"strided":   {name: "strided", run: runStrided},
	"kv":        {name: "kv", replicas: kvReplicas, run: runKV},
	"forkstorm": {name: "forkstorm", hotBytes: forkHotBytes, run: runForkStorm},
}

func (w *workload) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Link = vtime.QDRInfiniBand
	cfg.Geo.NumServers = memServers
	cfg.ServerShards = serverShards
	cfg.ManagerShards = managerShards
	cfg.ManagerReplicas = w.replicas
	if w.hotBytes > 0 {
		cfg.HotBytes = w.hotBytes
		cfg.ColdPreset = forkColdPreset
	}
	return cfg
}

// runStrided runs the paper's micro-benchmark with rows interleaved
// across threads. Its inputs do not depend on the seed. An op is one
// element update.
func runStrided(_ *core.Runtime, v *phaseVM, _ uint64, sz sizes) (outcome, error) {
	prm := kernels.MicroParams{N: sz.stridedRounds, M: stridedM, S: stridedS, B: stridedB,
		R: stridedR, Mode: kernels.AllocStrided}
	res, err := kernels.RunMicro(v, threads, prm)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{ops: int64(threads * prm.N * prm.M * prm.S * prm.B), run: res.Run}
	if want := stridedGSum(prm); math.Abs(res.GSum-want) > 1e-9*math.Abs(want) {
		out.check = fmt.Errorf("strided: GSum %v, closed form %v", res.GSum, want)
	}
	rounds := v.roundTimes()
	if len(rounds) != threads*prm.N {
		out.check = fmt.Errorf("strided: %d round times, want %d", len(rounds), threads*prm.N)
	}
	out.p50, out.p99 = quantiles(rounds)
	out.samples = int64(len(rounds))
	return out, nil
}

// stridedGSum is the kernel's closed form, P*S*pi*B*sum_{m=1}^{N*M} R^m:
// every element starts at 1.0 and is scaled by R once per pass.
func stridedGSum(prm kernels.MicroParams) float64 {
	var geom float64
	rm := 1.0
	for m := 1; m <= prm.N*prm.M; m++ {
		rm *= prm.R
		geom += rm
	}
	return threads * float64(prm.S) * math.Pi * float64(prm.B) * geom
}

func kvParams(seed uint64, opsPerClient int, gapNs int64) kv.Params {
	return kv.Params{Buckets: kvBuckets, Keys: kvKeys, Ops: opsPerClient, GetPct: kvGetPct,
		GapNs: gapNs, UseSpans: true, Recover: true, Seed: seed}
}

// runKV runs the open-loop KV service. An op is one request.
func runKV(_ *core.Runtime, v *phaseVM, seed uint64, sz sizes) (outcome, error) {
	return kvEpisode(v, kvParams(seed, sz.kvOps, kvGapNs))
}

func kvEpisode(v *phaseVM, prm kv.Params) (outcome, error) {
	res, err := kv.Run(v, threads, prm)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{ops: int64(threads * prm.Ops), failed: res.Errors, run: res.Run,
		p50: res.P50, p99: res.P99, samples: res.Ops}
	var seedSum float64
	for k := 0; k < prm.Keys; k++ {
		seedSum += float64(k % 97)
	}
	// The sequenced fabric injects no faults, so any request Recover
	// turned into an error response is a fault of the program.
	switch {
	case res.Errors != 0:
		out.check = fmt.Errorf("kv: %d of %d requests failed on a fault-free fabric", res.Errors, out.ops)
	case res.Ops+res.Errors != out.ops:
		out.check = fmt.Errorf("kv: %d served + %d failed != %d requests", res.Ops, res.Errors, out.ops)
	case res.Gets+res.Incrs != res.Ops:
		out.check = fmt.Errorf("kv: %d gets + %d incrs != %d served", res.Gets, res.Incrs, res.Ops)
	case res.SumVal != seedSum+res.AckedDelta:
		out.check = fmt.Errorf("kv: value sum %v != seed sum %v + acked deltas %v", res.SumVal, seedSum, res.AckedDelta)
	case res.SumVer != float64(res.Incrs):
		out.check = fmt.Errorf("kv: version sum %v != acked incrs %d", res.SumVer, res.Incrs)
	}
	return out, nil
}

// runForkStorm forks one sealed striped image over and over. An op is
// one fork.
func runForkStorm(rt *core.Runtime, v *phaseVM, seed uint64, sz sizes) (outcome, error) {
	prm := forkstorm.Params{ImageBytes: forkImageBytes, Forks: sz.forks, ReadsPerFork: forkReads,
		WritesPerFork: forkWrites, Recover: true, Seed: seed}
	res, err := forkstorm.Run(v, threads, prm)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{ops: int64(prm.Forks), failed: res.Errors, run: res.Run,
		p50: res.P50, p99: res.P99, samples: res.Forks}
	tier := rt.TierStats()
	// Recover also turns forkstorm.Run's own bit-exact read and write
	// checks into errors, and the fabric injects no faults, so any
	// failed fork is a fault of the program.
	switch {
	case res.Errors != 0:
		out.check = fmt.Errorf("forkstorm: %d of %d forks failed on a fault-free fabric", res.Errors, out.ops)
	case res.Forks != out.ops:
		out.check = fmt.Errorf("forkstorm: %d forks completed, want %d", res.Forks, out.ops)
	case tier.CoWBreaks.Load() != int64(prm.Forks*prm.WritesPerFork):
		out.check = fmt.Errorf("forkstorm: %d CoW breaks, want %d", tier.CoWBreaks.Load(), prm.Forks*prm.WritesPerFork)
	case tier.Demotions.Load() == 0:
		out.check = fmt.Errorf("forkstorm: the cold tier demoted no pages")
	}
	return out, nil
}

// quantiles returns the nearest-rank p50 and p99 of xs.
func quantiles(xs []int64) (p50, p99 vtime.Time) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := func(q float64) vtime.Time {
		return vtime.Time(s[int(math.Ceil(q*float64(len(s))))-1])
	}
	return rank(0.50), rank(0.99)
}
