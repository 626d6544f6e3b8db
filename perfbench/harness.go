package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"sensoragg/internal/obs"
)

// builder is one benchmark input: it makes a fresh deployment up to steady
// state (the timed set-up), and the instance runs whole rounds of a fixed,
// seeded operation sequence.
type builder func(seed uint64) (instance, error)

type instance interface {
	// ops is the number of operations in one round.
	ops() int
	// do runs operation i of the round and checks its answer. With tr
	// non-nil it also replays the operation through the layer calls,
	// recording spans and counts in tr.
	do(i int, tr *tracer) opStat
	// release drops the benchmark's own checker state, so the final heap
	// reading holds only the deployment.
	release()
	close()
}

// opStat is one operation's outcome.
type opStat struct {
	lat   time.Duration
	bits  int64
	err   error           // a wrong answer, failed operation or replay mismatch
	adhoc []time.Duration // fleet: the burst's Service.Query latencies
}

// workloads are described in BENCHMARK.json and README.md.
var workloads = map[string]builder{
	"select": buildSelect,
	"fleet":  buildFleet,
	"faults": buildFaults,
	"robust": buildRobust,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// roundStats are one round's timings. Every round repeats the same
// operations, so what differs between rounds is the host: the timing
// metrics are medians over the rounds of a run, which a slow stretch of a
// few rounds (a busy neighbour on a shared host) does not move, while a
// change to the program moves every round.
type roundStats struct {
	p50, p90, adhocP50, adhocP90, opsPerS float64
}

// medianOver is the median of f over the rounds.
func medianOver(rs []roundStats, f func(roundStats) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

// run builds the workload setupBuilds times (setup_s is the median), runs
// one untimed warm-up round, then whole rounds until the time is up and at
// least minOps operations were measured.
func run(build builder, seed uint64, dur time.Duration, trace bool) (report, error) {
	var inst instance
	setups := make([]float64, 0, setupBuilds)
	for k := 0; k < setupBuilds; k++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		in, err := build(seed)
		if err != nil {
			return report{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()
	fmt.Printf("set-up builds (s): %.4f\n", setups)

	rep := report{Correct: true}
	var firstErr error
	record := func(st opStat) {
		rep.Attempted++
		if st.err != nil {
			rep.Failed++
			if firstErr == nil {
				firstErr = st.err
				fmt.Printf("failed operation: %v\n", st.err)
			}
		}
	}
	n := inst.ops()
	for i := 0; i < n; i++ {
		record(inst.do(i, nil))
	}

	var tr *tracer
	var before obsCounts
	if trace {
		tr = newTracer()
		sk := obs.Enable()
		defer obs.Disable()
		before = readObs(sk)
	}
	lats := make([]float64, 0, 4*minOps)
	var adhoc []float64
	var bits, measured int64
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	var rounds []roundStats
	var rl []float64 // one round's samples, sorted; reused across rounds
	for {
		r0, a0, t0 := len(lats), len(adhoc), time.Now()
		for i := 0; i < n; i++ {
			st := inst.do(i, tr)
			record(st)
			lats = append(lats, ms(st.lat))
			for _, d := range st.adhoc {
				adhoc = append(adhoc, ms(d))
			}
			bits += st.bits
			measured++
		}
		rs := roundStats{opsPerS: float64(n) / time.Since(t0).Seconds()}
		rl = append(rl[:0], lats[r0:]...)
		sort.Float64s(rl)
		rs.p50, rs.p90 = percentile(rl, 0.5), percentile(rl, 0.9)
		if len(adhoc) > a0 {
			rl = append(rl[:0], adhoc[a0:]...)
			sort.Float64s(rl)
		}
		// Without a serving layer every Submit is itself the ad-hoc query,
		// answered with no window: the same samples as latency_*.
		rs.adhocP50, rs.adhocP90 = percentile(rl, 0.5), percentile(rl, 0.9)
		rounds = append(rounds, rs)
		el := time.Since(start)
		if (el >= dur && measured >= minOps) || el > maxRunWall {
			break
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	if measured < minOps {
		return report{}, fmt.Errorf("only %d operations in %v; a p99 needs %d", measured, wall, minOps)
	}
	sort.Float64s(lats)
	sort.Float64s(adhoc)
	// The p99s are printed, not gated: on a shared 2-vCPU host they moved
	// with the host's load far more than any bound allows (see README.md).
	fmt.Printf("rounds %d of %d operations, %d measured in %.3fs (latency ms p99 %.3f, max %.3f; ad-hoc p99 %.3f; %d GCs), first error: %v\n",
		len(rounds), n, measured, wall.Seconds(), percentile(lats, 0.99), lats[len(lats)-1], percentile(adhoc, 0.99), m1.NumGC-m0.NumGC, firstErr)
	if trace {
		fmt.Printf("traced latency_p50_ms %.4f\n", medianOver(rounds, func(r roundStats) float64 { return r.p50 }))
		rep.Metrics = tr.metrics(int(measured), readObs(obs.Active()).minus(before))
		if err := tr.writeSpans(); err != nil {
			fmt.Println("spans not written:", err)
		}
		return rep, nil
	}
	rep.Metrics = map[string]metric{
		"setup_s":        {median(setups), "s"},
		"latency_p50_ms": {medianOver(rounds, func(r roundStats) float64 { return r.p50 }), "ms"},
		"latency_p90_ms": {medianOver(rounds, func(r roundStats) float64 { return r.p90 }), "ms"},
		"ops_per_s":      {medianOver(rounds, func(r roundStats) float64 { return r.opsPerS }), "1/s"},
		"bits_per_node":  {float64(bits) / float64(measured), "bits"},
		"allocs_per_op":  {float64(m1.Mallocs-m0.Mallocs) / float64(measured), "allocs"},
		"adhoc_p50_ms":   {medianOver(rounds, func(r roundStats) float64 { return r.adhocP50 }), "ms"},
		"adhoc_p90_ms":   {medianOver(rounds, func(r roundStats) float64 { return r.adhocP90 }), "ms"},
	}
	// The live heap is the program's alone: the samples and the checker's
	// sorted copies are dropped first, the deployment stays referenced.
	lats, adhoc = nil, nil
	inst.release()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(inst)
	rep.Metrics["heap_live_mb"] = metric{float64(m2.HeapAlloc) / (1 << 20), "MiB"}
	return rep, nil
}

// splitmix is the benchmark's own seeded stream: every input (run seeds,
// ranks, φ, statements, drift) derives from the workload seed through it.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }

// phis draws k distinct quantile fractions in hundredths, ascending.
func (s *splitmix) phis(k int) []float64 {
	seen := map[int]bool{}
	out := make([]float64, 0, k)
	for len(out) < k {
		c := 1 + s.intn(99)
		if !seen[c] {
			seen[c] = true
			out = append(out, float64(c)/100)
		}
	}
	sort.Float64s(out)
	return out
}
