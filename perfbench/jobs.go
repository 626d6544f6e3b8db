package main

import (
	"context"
	"fmt"
	"time"

	"sensoragg/internal/engine"
	"sensoragg/internal/faults"
)

// jobInstance runs one unfused Engine.Submit per operation over a fixed
// round of seeded jobs; select, faults and robust are built on it.
type jobInstance struct {
	eng  *engine.Engine
	jobs []engine.Job
	// values gives the deployment's readings; rd is the benchmark's sorted
	// copy of them, made on the first check so the oracle's own work stays
	// out of the timed set-up.
	values func() []uint64
	rd     *readings
	check  func(*readings, engine.Result) error
	// replayable reports which jobs the replay can re-execute: a phased
	// fault plan's retry loop has no public entry points, so those jobs
	// report counts only.
	replayable func(engine.Job) bool
}

func (in *jobInstance) ops() int { return len(in.jobs) }
func (in *jobInstance) close()   {}
func (in *jobInstance) release() { in.rd = nil }

func (in *jobInstance) do(i int, tr *tracer) opStat {
	job := in.jobs[i]
	t0 := time.Now()
	r := in.eng.Submit(context.Background(), []engine.Job{job})[0]
	st := opStat{lat: time.Since(t0), bits: r.BitsPerNode}
	if r.Failed() {
		st.err = fmt.Errorf("%s: %s", job.ID, r.Error)
		return st
	}
	if in.rd == nil {
		in.rd = newReadings(in.values())
	}
	if err := in.check(in.rd, r); err != nil {
		st.err = fmt.Errorf("%s: %w", job.ID, err)
		return st
	}
	if tr == nil {
		return st
	}
	tr.op++
	tr.add("repair_bits", float64(r.RepairBits))
	tr.add("retries", float64(r.Retries))
	tr.add("audit_bits", float64(r.AuditBits))
	tr.add("audit_rounds", float64(r.AuditRounds))
	tr.add("quarantined", float64(r.Quarantined))
	if !in.replayable(job) {
		return st
	}
	t1 := time.Now()
	rp, err := replaySolo(tr, in.eng.Session(), job)
	wall := time.Since(t1)
	if err == nil {
		err = sameAnswer(r, rp)
	}
	if err != nil {
		st.err = fmt.Errorf("%s: %w", job.ID, err)
		return st
	}
	tr.replayed++
	tr.add("submit_self_ms", ms(st.lat-wall))
	return st
}

// warm runs one job of each spec/kind pair once: the first fork, the tree
// scratch and the arenas are built here, inside set-up. The warm jobs share
// one fixed run seed, so set-up does the same work whatever the workload
// seed drew for the round.
func warm(eng *engine.Engine, jobs []engine.Job) error {
	seen := map[string]bool{}
	for _, j := range jobs {
		key := j.Spec.String() + "/" + j.Query.Kind
		if seen[key] {
			continue
		}
		seen[key] = true
		j.RunSeed = 1
		if r := eng.Submit(context.Background(), []engine.Job{j})[0]; r.Failed() {
			return fmt.Errorf("%s: %s", j.ID, r.Error)
		}
	}
	return nil
}

// selectJob is operation i of select's round-robin: median, five
// quantiles, an order statistic, and the fused count/sum/min/max sweep.
func selectJob(rng *splitmix, spec engine.Spec, i, n int) engine.Job {
	q := engine.Query{}
	switch i % 4 {
	case 0:
		q.Kind = engine.KindMedian
	case 1:
		q = engine.Query{Kind: engine.KindQuantiles, Phis: rng.phis(5)}
	case 2:
		q = engine.Query{Kind: engine.KindOrderStat, K: uint64(1 + rng.intn(n))}
	case 3:
		q.Kind = engine.KindFused
	}
	return engine.Job{ID: fmt.Sprintf("op%d-%s", i, q.Kind), Spec: spec, Query: q, RunSeed: rng.next() | 1}
}

// buildSelect: a reliable 16384-node grid, 64 jobs a round.
func buildSelect(seed uint64) (instance, error) {
	spec := engine.Spec{Topology: "grid", N: 16384, Seed: seed}
	eng := engine.New(engine.Options{})
	tmpl, err := eng.Session().Template(spec)
	if err != nil {
		return nil, err
	}
	rng := splitmix(seed)
	jobs := make([]engine.Job, 64)
	for i := range jobs {
		jobs[i] = selectJob(&rng, spec, i, tmpl.N())
	}
	if err := warm(eng, jobs); err != nil {
		return nil, err
	}
	return &jobInstance{
		eng:        eng,
		jobs:       jobs,
		values:     tmpl.AllItems,
		check:      checkExact,
		replayable: func(engine.Job) bool { return true },
	}, nil
}

// checkExact judges a reliable-network answer against the readings.
func checkExact(rd *readings, r engine.Result) error {
	n := rd.n()
	switch r.Query.Kind {
	case engine.KindMedian:
		return checkRankAnswer(rd, r.Value, medianRank(n))
	case engine.KindOrderStat:
		return checkRankAnswer(rd, r.Value, int(r.Query.K))
	case engine.KindQuantiles:
		if len(r.Values) != len(r.Query.Phis) {
			return fmt.Errorf("%d answers for %d quantiles", len(r.Values), len(r.Query.Phis))
		}
		for i, phi := range r.Query.Phis {
			if err := checkRankAnswer(rd, r.Values[i], quantileRank(phi, n)); err != nil {
				return fmt.Errorf("φ=%g: %w", phi, err)
			}
		}
		return nil
	case engine.KindFused:
		a, err := fusedAggs(r)
		if err != nil {
			return err
		}
		return rd.checkAggs(a)
	}
	return fmt.Errorf("no checker for kind %s", r.Query.Kind)
}

func checkRankAnswer(rd *readings, v float64, j int) error {
	y, err := toUint(v)
	if err != nil {
		return err
	}
	return rd.checkRank(y, j)
}

// fusedAggs reads a fused count/sum/min/max answer.
func fusedAggs(r engine.Result) (aggs, error) {
	if len(r.Values) != 4 || len(r.Query.Aggs) != 4 {
		return aggs{}, fmt.Errorf("fused answer %v for aggregates %v", r.Values, r.Query.Aggs)
	}
	var a aggs
	for i, name := range r.Query.Aggs {
		v, err := toUint(r.Values[i])
		if err != nil {
			return aggs{}, err
		}
		switch name {
		case "count":
			a.count = v
		case "sum":
			a.sum = v
		case "min":
			a.min = v
		case "max":
			a.max = v
		}
	}
	return a, nil
}

// buildFaults: a 4096-node grid under four fault plans, each job with its
// own run seed (so its own crashed nodes and dead links): run-long crashes
// plus dead links healed before the query, and phased mid-sweep crashes,
// mid-sweep link failures and root kills resumed by the retry loop. The
// queries ask relative ranks only, so a root cut off by dead links still
// has an answer over the nodes it reaches.
func buildFaults(seed uint64) (instance, error) {
	base := engine.Spec{Topology: "grid", N: 4096, Seed: seed}
	retry := engine.Retry{Budget: 16}
	plans := []engine.Spec{base, base, base, base}
	plans[0].Faults = faults.Spec{Crash: 0.04, LinkFail: 0.04}
	plans[1].Faults, plans[1].Retry = faults.Spec{MidAt: 2, MidCrash: 0.04}, retry
	plans[2].Faults, plans[2].Retry = faults.Spec{MidAt: 3, MidLinkFail: 0.05}, retry
	plans[3].Faults, plans[3].Retry = faults.Spec{MidAt: 2, MidKillRoot: true}, retry
	eng := engine.New(engine.Options{})
	tmpl, err := eng.Session().Template(base)
	if err != nil {
		return nil, err
	}
	rng := splitmix(seed)
	var jobs []engine.Job
	for rep := 0; rep < 8; rep++ {
		for p, spec := range plans {
			for _, q := range []engine.Query{{Kind: engine.KindMedian}, {Kind: engine.KindQuantiles, Phis: rng.phis(3)}} {
				jobs = append(jobs, engine.Job{ID: fmt.Sprintf("op%d-plan%d-%s", len(jobs), p, q.Kind), Spec: spec, Query: q, RunSeed: rng.next() | 1})
			}
		}
	}
	if err := warm(eng, jobs); err != nil {
		return nil, err
	}
	return &jobInstance{
		eng:    eng,
		jobs:   jobs,
		values: tmpl.AllItems,
		check: func(rd *readings, r engine.Result) error {
			if r.Degraded {
				return fmt.Errorf("degraded answer after %d retries", r.Retries)
			}
			return checkRanksLost(rd, r, r.Crashed+r.Unreachable, 0)
		},
		replayable: func(j engine.Job) bool { return !j.Spec.Faults.Phased() },
	}, nil
}

// checkRanksLost judges a rank answer over a population that lost lost of
// the readings, with slack positions of integrity displacement.
func checkRanksLost(rd *readings, r engine.Result, lost int, slack int) error {
	one := func(v float64, rank func(int) int) error {
		y, err := toUint(v)
		if err != nil {
			return err
		}
		lo, hi := rankWindow(rank, rd.n(), lost, slack)
		return rd.checkRankWindow(y, lo, hi, slack == 0)
	}
	switch r.Query.Kind {
	case engine.KindMedian:
		return one(r.Value, medianRank)
	case engine.KindQuantiles:
		if len(r.Values) != len(r.Query.Phis) {
			return fmt.Errorf("%d answers for %d quantiles", len(r.Values), len(r.Query.Phis))
		}
		for i, phi := range r.Query.Phis {
			if err := one(r.Values[i], func(m int) int { return quantileRank(phi, m) }); err != nil {
				return fmt.Errorf("φ=%g: %w", phi, err)
			}
		}
		return nil
	case engine.KindFused:
		a, err := fusedAggs(r)
		if err != nil {
			return err
		}
		return rd.checkAggsWindow(a, lost, slack)
	}
	return fmt.Errorf("no checker for kind %s", r.Query.Kind)
}

// buildRobust: robust median, quantiles and fused queries on a 1024-node
// grid where 2% of the nodes lie; each job's run seed picks its liars. The
// run seeds come from a fixed stream, so every workload seed meets the same
// liars and the audit cost (most of the bits) compares across seeds; the
// workload seed draws the readings and the quantile fractions.
func buildRobust(seed uint64) (instance, error) {
	spec := engine.Spec{Topology: "grid", N: 1024, Seed: seed, Faults: faults.Spec{Byz: 0.02}}
	eng := engine.New(engine.Options{})
	tmpl, err := eng.Session().Template(spec)
	if err != nil {
		return nil, err
	}
	rng, liars := splitmix(seed), splitmix(0x1a125)
	var jobs []engine.Job
	for rep := 0; rep < 16; rep++ {
		for _, q := range []engine.Query{
			{Kind: engine.KindMedian, Robust: true},
			{Kind: engine.KindQuantiles, Phis: rng.phis(3), Robust: true},
			{Kind: engine.KindFused, Robust: true},
		} {
			jobs = append(jobs, engine.Job{ID: fmt.Sprintf("op%d-%s", len(jobs), q.Kind), Spec: spec, Query: q, RunSeed: liars.next() | 1})
		}
	}
	if err := warm(eng, jobs); err != nil {
		return nil, err
	}
	return &jobInstance{
		eng:    eng,
		jobs:   jobs,
		values: tmpl.AllItems,
		check: func(rd *readings, r engine.Result) error {
			lost := r.Quarantined + r.Crashed + r.Unreachable
			return checkRanksLost(rd, r, lost, int(r.IntegrityBound))
		},
		replayable: func(engine.Job) bool { return true },
	}, nil
}
