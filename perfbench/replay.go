package main

import (
	"fmt"
	"slices"

	"sensoragg/internal/agg"
	"sensoragg/internal/byz"
	"sensoragg/internal/core"
	"sensoragg/internal/engine"
	"sensoragg/internal/netsim"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// The replay re-executes an operation through the layers' public calls in
// the engine's own order — fork, meter snapshot, heal, (robust: localize,
// trimmed plane), primitive sweeps driven by the selection stepper, the
// ground-truth oracle, meter delta — with a span around each call. Its
// answer and bits/node must equal what the engine returned for the same
// job, so the spans price the program's own path.

// replayed is a replay's answer: the answer vector and the paper's cost.
type replayed struct {
	values []float64
	bits   int64
}

// answerOf is the engine result's answer vector.
func answerOf(r engine.Result) []float64 {
	if len(r.Values) > 0 {
		return r.Values
	}
	return []float64{r.Value}
}

// sameAnswer reports a replay that diverged from the engine's result.
func sameAnswer(r engine.Result, rp replayed) error {
	if got := answerOf(r); !slices.Equal(got, rp.values) || r.BitsPerNode != rp.bits {
		return fmt.Errorf("replay mismatch on %s: engine %v at %d bits/node, replay %v at %d", r.ID, got, r.BitsPerNode, rp.values, rp.bits)
	}
	return nil
}

// replaySolo replays one unfused job (no phased fault plan): what
// Engine.Submit executes for the median, order-statistic, quantiles and
// fused kinds, robust or not.
func replaySolo(tr *tracer, sess *engine.Session, job engine.Job) (replayed, error) {
	spec, q := job.Spec.Normalize(), job.Query.WithDefaults()
	tr.begin("netsim.fork")
	nw, err := sess.Instantiate(spec, job.RunSeed)
	tr.end()
	if err != nil {
		return replayed{}, err
	}
	tr.begin("netsim.meter")
	before := nw.Meter.Snapshot()
	tr.end()
	tr.begin("spantree.heal")
	fe, hr, err := spantree.NewFastHealed(nw)
	tr.end()
	if err != nil {
		return replayed{}, err
	}
	view := fe.View()
	tr.begin("engine.oracle")
	values := nw.AllItems()
	if hr != nil {
		values = survivors(nw, hr.View)
	}
	tr.end()

	var p prim
	if q.Robust {
		var rep *byz.Report
		tr.begin("byz.localize")
		rep, view, err = byz.Localize(nw, view)
		tr.end()
		if err != nil {
			return replayed{}, err
		}
		if rep.Healed != nil {
			tr.begin("engine.oracle")
			values = survivors(nw, view)
			tr.end()
		}
		tr.begin("byz.trimmed")
		rnet := byz.NewRobustNet(nw, view, byz.WithSketchP(q.SketchP))
		rnet.CrossCheck()
		tr.end()
		p = timedPrim{rnet, tr, "byz.trimmed", "byz.trimmed"}
	} else {
		an := agg.NewNet(&timedOps{fe, tr}, agg.WithSketchP(q.SketchP))
		p = timedPrim{an, tr, "agg.minmax", "agg.countvec"}
	}

	var out []float64
	switch q.Kind {
	case engine.KindFused:
		c, s, lo, hi, ok := p.MultiAggregate(core.Linear, wire.True())
		if !ok {
			return replayed{}, core.ErrEmpty
		}
		for _, a := range q.Aggs {
			out = append(out, map[string]float64{"count": float64(c), "sum": float64(s), "min": float64(lo), "max": float64(hi)}[a])
		}
		tr.begin("engine.oracle")
		fusedTruth(values)
		tr.end()
	default:
		var ranks []core.BatchRank
		switch q.Kind {
		case engine.KindMedian:
			ranks = []core.BatchRank{{Median: true}}
		case engine.KindOrderStat:
			k := q.K
			if k == 0 {
				k = uint64((len(values) + 1) / 2)
			}
			ranks = []core.BatchRank{{K: k}}
		case engine.KindQuantiles:
			for _, phi := range q.Phis {
				ranks = append(ranks, core.BatchRank{Phi: phi})
			}
		default:
			return replayed{}, fmt.Errorf("replay: kind %s not replayed", q.Kind)
		}
		vals, err := selectRanks(tr, p, ranks, q.ProbeWidth, q.SeedWindows)
		if err != nil {
			return replayed{}, err
		}
		for _, v := range vals {
			out = append(out, float64(v))
		}
		tr.begin("engine.oracle")
		core.SortedCopy(values)
		tr.end()
	}
	d := meterSince(tr, nw, before)
	nw.Release()
	return replayed{values: out, bits: d.MaxPerNode}, nil
}

// survivors collects the readings of the nodes a healed view covers.
func survivors(nw *netsim.Network, view *spantree.TreeView) []uint64 {
	out := make([]uint64, 0, len(view.Order))
	for _, nd := range nw.Nodes {
		if view.Includes(nd.ID) {
			for _, it := range nd.Items {
				out = append(out, it.Orig)
			}
		}
	}
	return out
}

// fusedTruth is the simulator's ground-truth pass for one aggregate answer.
func fusedTruth(values []uint64) (sum, lo, hi uint64) {
	lo, hi = values[0], values[0]
	for _, v := range values {
		sum += v
		lo, hi = min(lo, v), max(hi, v)
	}
	return sum, lo, hi
}

// selectRanks is the single-query k-ary selection driver: one MinMax
// round, then one CountVec per stepper proposal, the top probe folded into
// the first sweep.
func selectRanks(tr *tracer, p prim, ranks []core.BatchRank, width int, seeds []core.SeedWindow) ([]uint64, error) {
	tr.begin("core.stepper")
	st := core.NewSelectStepper(ranks, width)
	st.SeedHints(seeds)
	tr.end()
	lo, hi, ok := p.MinMax(core.Linear)
	if !ok {
		return nil, core.ErrEmpty
	}
	st.Bounds(lo, hi)
	var probes, counts []uint64
	var preds []wire.Pred
	for sweeps := 0; !st.Done(); sweeps++ {
		if sweeps > core.MaxSelectSweeps {
			return nil, core.ErrNoConverge
		}
		tr.begin("core.stepper")
		probes = st.Propose(probes[:0])
		slices.Sort(probes)
		probes = slices.Compact(probes)
		top, trueTop := !st.Resolved(), st.WantTrueTop()
		if top && !trueTop {
			probes = append(probes, hi+1)
		}
		preds = preds[:0]
		for _, t := range probes {
			preds = append(preds, wire.Less(t))
		}
		if trueTop {
			preds = append(preds, wire.True())
		}
		tr.end()
		counts = p.CountVec(core.Linear, preds, counts)
		tr.begin("core.stepper")
		if top {
			if err := st.ResolveN(counts[len(counts)-1]); err != nil {
				tr.end()
				return nil, err
			}
		}
		st.Observe(probes, counts[:len(probes)])
		tr.end()
	}
	return st.Values(nil), nil
}

// fusedMember is one subscription's slot in a replayed fusion batch.
type fusedMember struct {
	ranks []core.BatchRank
	seeds []core.SeedWindow
	width int
	agg   string // count|sum|min|max|avg for an aggregate member
}

// replayBatch replays one fused batch over an overlaid fork: the shared
// MinMax round, then merged probe sweeps through agg.SweepMux until every
// member resolves, as the engine's fusion scheduler runs them.
func replayBatch(tr *tracer, sess *engine.Session, spec engine.Spec, overlay []uint64, members []fusedMember) ([][]float64, int64, error) {
	spec = spec.Normalize()
	tr.begin("netsim.fork")
	nw, err := sess.Instantiate(spec, spec.Seed)
	if err == nil {
		k := 0
		for _, nd := range nw.Nodes {
			for i := range nd.Items {
				v := min(overlay[k], nw.MaxX)
				nd.Items[i] = netsim.Item{Orig: v, Cur: v, Active: true}
				k++
			}
		}
	}
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("netsim.meter")
	before := nw.Meter.Snapshot()
	tr.end()
	tr.begin("spantree.heal")
	fe, _, err := spantree.NewFastHealed(nw)
	tr.end()
	if err != nil {
		return nil, 0, err
	}
	tr.begin("engine.oracle")
	values := nw.AllItems()
	tr.end()
	an := agg.NewNet(&timedOps{fe, tr})

	tr.begin("core.stepper")
	steppers := make([]*core.SelectStepper, len(members))
	needSum := false
	for i, m := range members {
		if len(m.ranks) > 0 {
			steppers[i] = core.NewSelectStepper(m.ranks, m.width)
			steppers[i].SeedHints(m.seeds)
		} else if m.agg == "sum" || m.agg == "avg" {
			needSum = true
		}
	}
	tr.end()
	lo, hi, ok := timedPrim{an, tr, "agg.minmax", "agg.countvec"}.MinMax(core.Linear)
	if !ok {
		return nil, 0, core.ErrEmpty
	}
	for _, st := range steppers {
		if st != nil {
			st.Bounds(lo, hi)
		}
	}
	mux := agg.NewSweepMux(an)
	var probeBuf []uint64
	var n, sum uint64
	resolved := false
	for {
		tr.begin("core.stepper")
		mux.Begin()
		work := false
		for _, st := range steppers {
			if st == nil || (st.Resolved() && st.Done()) {
				continue
			}
			probeBuf = st.Propose(probeBuf[:0])
			mux.Add(probeBuf)
			work = true
		}
		if !resolved {
			mux.AddTop(hi)
			if needSum {
				mux.AddSum()
			}
			work = true
		}
		tr.end()
		if !work {
			break
		}
		tr.begin("agg.countvec")
		mux.Sweep(core.Linear)
		tr.end()
		tr.begin("core.stepper")
		if !resolved {
			resolved = true
			n, _ = mux.Top()
			sum, _ = mux.Sum()
			for _, st := range steppers {
				if st != nil {
					if err := st.ResolveN(n); err != nil {
						tr.end()
						return nil, 0, err
					}
				}
			}
		}
		ts, cs := mux.Thresholds(), mux.Counts()
		for _, st := range steppers {
			if st != nil && !st.Done() {
				st.Observe(ts, cs)
			}
		}
		tr.end()
		if mux.Sweeps > core.MaxSelectSweeps {
			return nil, 0, core.ErrNoConverge
		}
	}

	out := make([][]float64, len(members))
	sorts, passes := 0, 0
	for i, m := range members {
		if st := steppers[i]; st != nil {
			sorts = 1
			for _, v := range st.Values(nil) {
				out[i] = append(out[i], float64(v))
			}
			continue
		}
		passes++
		out[i] = []float64{map[string]float64{
			"count": float64(n), "sum": float64(sum), "min": float64(lo), "max": float64(hi),
			"avg": float64(sum) / float64(n),
		}[m.agg]}
	}
	// The engine sorts the readings once per batch for the rank truths and
	// makes one pass over them per aggregate member.
	tr.begin("engine.oracle")
	for ; sorts > 0; sorts-- {
		core.SortedCopy(values)
	}
	for ; passes > 0; passes-- {
		fusedTruth(values)
	}
	tr.end()
	d := meterSince(tr, nw, before)
	nw.Release()
	return out, d.MaxPerNode, nil
}
