package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"sensoragg/internal/core"
	"sensoragg/internal/engine"
	"sensoragg/internal/serve"
	"sensoragg/internal/topology"
)

const (
	fleetNodes = 4096
	fleetSubs  = 64
	// fleetPeriod is the drift's period in epochs. A round is one period,
	// so every round drifts through the same values; the delta-narrowing
	// seeds depend on the last two answers only, so after two priming
	// epochs in set-up every round repeats the one before.
	fleetPeriod = 32
	fleetPrime  = 2
	// burstSize ad-hoc statements go through Service.Query after each
	// epoch, concurrently, and finish before the next epoch starts.
	burstSize = 3
	// driftStep bounds one node's per-epoch move.
	driftStep = 24
)

// statement is one sensorql statement and what the checker needs of it.
type statement struct {
	text string
	kind string // median|quantiles|count|sum|min|max|avg
	phis []float64
}

func newStatement(kind string, phis []float64) statement {
	st := statement{kind: kind, phis: phis}
	switch kind {
	case "quantiles":
		st.text = "SELECT quantiles(value"
		if len(phis) == 1 {
			st.text = "SELECT quantile(value"
		}
		for _, p := range phis {
			st.text += ", " + strconv.FormatFloat(p, 'g', -1, 64)
		}
		st.text += ")"
	default:
		st.text = "SELECT " + kind + "(value)"
	}
	return st
}

// statementKinds are the eight statement kinds subscriptions and bursts
// cycle through; "quantile" asks one fraction, "quantiles" three.
var statementKinds = []string{"median", "quantile", "quantiles", "count", "sum", "min", "max", "avg"}

// fleetStatement is statement i of a cycle through statementKinds, its
// quantile fractions drawn by phis.
func fleetStatement(i int, phis func(k int) []float64) statement {
	switch kind := statementKinds[i%len(statementKinds)]; kind {
	case "quantile":
		return newStatement("quantiles", phis(1))
	case "quantiles":
		return newStatement("quantiles", phis(3))
	default:
		return newStatement(kind, nil)
	}
}

// dashboard is subscription i of the fixed 64-statement dashboard, each
// quantile statement with its own fractions.
func dashboard(i int) statement {
	one := []float64{0.05, 0.1, 0.25, 0.33, 0.67, 0.75, 0.9, 0.95}
	three := [][]float64{{0.1, 0.5, 0.9}, {0.25, 0.5, 0.75}, {0.01, 0.5, 0.99}, {0.2, 0.4, 0.6},
		{0.3, 0.6, 0.9}, {0.05, 0.5, 0.95}, {0.15, 0.45, 0.85}, {0.33, 0.5, 0.67}}
	return fleetStatement(i, func(k int) []float64 {
		if k == 1 {
			return []float64{one[i/len(statementKinds)]}
		}
		return three[i/len(statementKinds)]
	})
}

// subState is the replay's copy of one subscription: its statement, and
// the answers of the last two usable epochs, from which the service
// derives the next epoch's delta-narrowing windows.
type subState struct {
	st         statement
	sub        *serve.Subscription
	q          engine.Query
	seen       int
	prev, move []int64
}

type fleetInstance struct {
	eng    *engine.Engine
	svc    *serve.Service
	spec   engine.Spec
	subs   []*subState
	bursts [fleetPeriod][burstSize]statement
	// values[c] are the readings at drift position c (epoch e is at e mod
	// fleetPeriod); rds holds the benchmark's sorted copies, made on
	// first use.
	values [fleetPeriod][]uint64
	rds    [fleetPeriod]*readings
}

// driftTable is the benchmark's drift: a hash walk per node, ±driftStep a
// step, restarting from the deployment's readings every fleetPeriod epochs.
func driftTable(seed uint64, base []uint64, maxX uint64) (t [fleetPeriod][]uint64) {
	rng := splitmix(seed ^ 0x5eed)
	t[0] = base
	for c := 1; c < fleetPeriod; c++ {
		t[c] = make([]uint64, len(base))
		for u, v := range t[c-1] {
			next := int64(v) + int64(rng.intn(2*driftStep+1)) - driftStep
			t[c][u] = uint64(max(0, min(next, int64(maxX))))
		}
	}
	return t
}

func buildFleet(seed uint64) (instance, error) {
	spec := engine.Spec{Topology: "grid", N: fleetNodes, Seed: seed}
	eng := engine.New(engine.Options{})
	tmpl, err := eng.Session().Template(spec)
	if err != nil {
		return nil, err
	}
	in := &fleetInstance{eng: eng, spec: spec, values: driftTable(seed, tmpl.AllItems(), tmpl.MaxX)}
	in.svc, err = serve.New(serve.Options{
		Spec:   spec,
		Engine: eng,
		Update: func(e int, u topology.NodeID, _ uint64) uint64 { return in.values[e%fleetPeriod][u] },
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < fleetSubs; i++ {
		st := dashboard(i)
		sub, err := in.svc.Subscribe(context.Background(), st.text)
		if err != nil {
			in.close()
			return nil, err
		}
		q, nranks, err := serve.QueryFor(st.text)
		if err != nil {
			in.close()
			return nil, err
		}
		in.subs = append(in.subs, &subState{st: st, sub: sub, q: q, prev: make([]int64, nranks), move: make([]int64, nranks)})
	}
	rng := splitmix(seed)
	for c := range in.bursts {
		for k := range in.bursts[c] {
			in.bursts[c][k] = fleetStatement(c*burstSize+k, rng.phis)
		}
	}
	for e := 0; e < fleetPrime; e++ {
		if _, err := in.epoch(); err != nil {
			in.close()
			return nil, err
		}
	}
	return in, nil
}

func (in *fleetInstance) ops() int { return fleetPeriod }
func (in *fleetInstance) close()   { in.svc.Close() }

// release drops the sorted copies; the drift table stays, since the
// service's Update reads it.
func (in *fleetInstance) release() { in.rds = [fleetPeriod]*readings{} }

func (in *fleetInstance) readings(c int) *readings {
	if in.rds[c] == nil {
		in.rds[c] = newReadings(in.values[c])
	}
	return in.rds[c]
}

// epoch advances one epoch, takes every subscriber's delivery and folds
// the answers into the seed state. It returns the epoch's results in
// subscription order.
func (in *fleetInstance) epoch() ([]serve.Result, error) {
	out := in.svc.AdvanceEpoch(context.Background())
	if len(out) != len(in.subs) {
		return nil, fmt.Errorf("epoch answered %d of %d subscriptions", len(out), len(in.subs))
	}
	for i, s := range in.subs {
		select {
		case r := <-s.sub.Results():
			if r.Epoch != out[i].Epoch {
				return nil, fmt.Errorf("subscription %d got epoch %d, want %d", i, r.Epoch, out[i].Epoch)
			}
		default:
			return nil, fmt.Errorf("subscription %d: no delivery for epoch %d", i, out[i].Epoch)
		}
		if out[i].Failed() || out[i].LKG || out[i].Degraded {
			return nil, fmt.Errorf("subscription %d, epoch %d: unusable answer %q", i, out[i].Epoch, out[i].Error)
		}
		s.observe(out[i].Result)
	}
	return out, nil
}

// observe mirrors the service's seed bookkeeping: the last answer and its
// move since the epoch before.
func (s *subState) observe(r engine.Result) {
	if len(s.prev) == 0 {
		return
	}
	for i, v := range answerOf(r) {
		if s.seen > 0 {
			s.move[i] = int64(v) - s.prev[i]
		}
		s.prev[i] = int64(v)
	}
	s.seen++
}

// seeds are the windows the service attaches to the subscription's next
// query: last answer plus last move, ± max(SeedMarginFloor, |move|).
func (s *subState) seeds() []core.SeedWindow {
	if len(s.prev) == 0 || s.seen < 2 {
		return nil
	}
	out := make([]core.SeedWindow, len(s.prev))
	for i := range out {
		margin := max(s.move[i], -s.move[i], serve.SeedMarginFloor)
		center := max(s.prev[i]+s.move[i], 0)
		out[i] = core.SeedWindow{Lo: uint64(max(center-margin, 0)), Hi: uint64(center + margin)}
	}
	return out
}

func (in *fleetInstance) do(i int, tr *tracer) opStat {
	var seeds [][]core.SeedWindow
	if tr != nil {
		for _, s := range in.subs {
			seeds = append(seeds, s.seeds())
		}
	}
	t0 := time.Now()
	out, err := in.epoch()
	st := opStat{lat: time.Since(t0)}
	if err != nil {
		st.err = err
		return st
	}
	e := out[0].Epoch
	c := e % fleetPeriod
	rd := in.readings(c)
	for k, r := range out {
		st.bits = max(st.bits, r.BitsPerNode)
		if err := checkStatement(rd, in.subs[k].st, r.Result); err != nil {
			st.err = fmt.Errorf("epoch %d, subscription %d (%s): %w", e, k, in.subs[k].st.text, err)
			return st
		}
	}
	for _, r := range out {
		if r.BitsPerNode != st.bits || !r.Fused {
			st.err = fmt.Errorf("epoch %d: subscriptions not answered by one fused batch", e)
			return st
		}
	}
	if tr != nil {
		tr.op++
		if err := in.replay(tr, out, seeds, c, st.lat); err != nil {
			st.err = fmt.Errorf("epoch %d: %w", e, err)
			return st
		}
	}
	st.adhoc, st.err = in.burst(tr, c, e, rd)
	return st
}

// burst sends the epoch's ad-hoc statements concurrently and checks them
// against the epoch's readings.
func (in *fleetInstance) burst(tr *tracer, c, e int, rd *readings) ([]time.Duration, error) {
	lats := make([]time.Duration, burstSize)
	res := make([]serve.Result, burstSize)
	errs := make([]error, burstSize)
	var wg sync.WaitGroup
	for k := range in.bursts[c] {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			t0 := time.Now()
			res[k], errs[k] = in.svc.Query(context.Background(), in.bursts[c][k].text)
			lats[k] = time.Since(t0)
		}(k)
	}
	wg.Wait()
	for k, r := range res {
		st := in.bursts[c][k]
		if errs[k] == nil && r.Epoch != e {
			errs[k] = fmt.Errorf("answered epoch %d", r.Epoch)
		}
		if errs[k] == nil {
			errs[k] = checkStatement(rd, st, r.Result)
		}
		if errs[k] != nil {
			return lats, fmt.Errorf("epoch %d, ad-hoc %s: %w", e, st.text, errs[k])
		}
		if tr != nil {
			tr.add("adhoc", 1)
			tr.add("adhoc_wait_ms", ms(lats[k]-time.Duration(r.WallNS)))
		}
	}
	return lats, nil
}

// checkStatement judges one statement's answer against the readings.
func checkStatement(rd *readings, st statement, r engine.Result) error {
	n := rd.n()
	got := answerOf(r)
	whole := func(i int) (uint64, error) { return toUint(got[i]) }
	switch st.kind {
	case "median":
		y, err := whole(0)
		if err != nil {
			return err
		}
		return rd.checkRank(y, medianRank(n))
	case "quantiles":
		if len(got) != len(st.phis) {
			return fmt.Errorf("%d answers for %d quantiles", len(got), len(st.phis))
		}
		for i, phi := range st.phis {
			y, err := whole(i)
			if err != nil {
				return err
			}
			if err := rd.checkRank(y, quantileRank(phi, n)); err != nil {
				return fmt.Errorf("φ=%g: %w", phi, err)
			}
		}
		return nil
	}
	want := map[string]float64{
		"count": float64(n),
		"sum":   float64(rd.prefix[n]),
		"min":   float64(rd.sorted[0]),
		"max":   float64(rd.sorted[n-1]),
		"avg":   float64(rd.prefix[n]) / float64(n),
	}[st.kind]
	if len(got) != 1 || got[0] != want {
		return fmt.Errorf("answer %v, want %v", got, want)
	}
	return nil
}

// replay re-executes the epoch's fused batch through the layer calls and
// requires every member's answer and the batch's bits/node to match.
func (in *fleetInstance) replay(tr *tracer, out []serve.Result, seeds [][]core.SeedWindow, c int, lat time.Duration) error {
	members := make([]fusedMember, len(in.subs))
	seeded := 0
	for k, s := range in.subs {
		q := s.q.WithDefaults()
		m := fusedMember{width: q.ProbeWidth, seeds: seeds[k]}
		switch q.Kind {
		case engine.KindMedian:
			m.ranks = []core.BatchRank{{Median: true}}
		case engine.KindQuantiles:
			for _, phi := range q.Phis {
				m.ranks = append(m.ranks, core.BatchRank{Phi: phi})
			}
		default:
			m.agg = q.Kind
		}
		if m.seeds != nil {
			seeded++
			if out[k].SeedHit {
				tr.add("seed_hits", 1)
			}
		}
		members[k] = m
	}
	tr.add("seeded", float64(seeded))
	t0 := time.Now()
	answers, bits, err := replayBatch(tr, in.eng.Session(), in.spec, in.values[c], members)
	wall := time.Since(t0)
	if err != nil {
		return err
	}
	for k, r := range out {
		if err := sameAnswer(r.Result, replayed{values: answers[k], bits: bits}); err != nil {
			return err
		}
	}
	tr.replayed++
	batch := time.Duration(out[0].WallNS)
	tr.add("submit_self_ms", ms(batch-wall))
	tr.add("epoch_self_ms", ms(lat-batch))
	return nil
}
