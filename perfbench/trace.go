package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"sensoragg/internal/core"
	"sensoragg/internal/netsim"
	"sensoragg/internal/obs"
	"sensoragg/internal/spantree"
	"sensoragg/internal/wire"
)

// tracer records spans around the benchmark's calls into each layer. Spans
// of one operation share its number; a span's self time is its duration
// minus that of its child spans. Spans stay in memory until the run ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
	child []time.Duration

	total, self map[string]time.Duration
	// count holds the per-layer counts, each summed over operations.
	count map[string]float64
	// replayed is the number of operations replayed through layer calls.
	replayed int
}

type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index of the parent span, -1 at the top
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer {
	return &tracer{
		t0:    time.Now(),
		total: map[string]time.Duration{},
		self:  map[string]time.Duration{},
		count: map[string]float64{},
	}
}

func (t *tracer) begin(name string) {
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
	t.child = append(t.child, 0)
}

func (t *tracer) end() {
	top := len(t.stack) - 1
	sp := &t.spans[t.stack[top]]
	sp.End = int64(time.Since(t.t0))
	d := time.Duration(sp.End - sp.Start)
	t.total[sp.Name] += d
	t.self[sp.Name] += d - t.child[top]
	t.stack, t.child = t.stack[:top], t.child[:top]
	if top > 0 {
		t.child[top-1] += d
	}
}

func (t *tracer) add(name string, v float64) { t.count[name] += v }

// writeSpans stores the spans as JSON lines under .bench_build/trace.
func (t *tracer) writeSpans() error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("spans-%d.jsonl", os.Getpid())))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// obsCounts are the program's own obs counters the per-layer metrics read.
type obsCounts struct {
	chainSum, chainN   float64
	batchSum, batchN   float64
	fillSum, fillN     float64
	epochs, incomplete float64
}

func readObs(sk *obs.Sink) obsCounts {
	return obsCounts{
		chainSum: sk.ChainWidth.Sum(), chainN: float64(sk.ChainWidth.Count()),
		batchSum: sk.FusionBatchSize.Sum(), batchN: float64(sk.FusionBatchSize.Count()),
		fillSum: sk.WindowFill.Sum(), fillN: float64(sk.WindowFill.Count()),
		epochs: float64(sk.Epochs.Value()), incomplete: float64(sk.SweepsIncomplete.Value()),
	}
}

func (a obsCounts) minus(b obsCounts) obsCounts {
	return obsCounts{
		a.chainSum - b.chainSum, a.chainN - b.chainN,
		a.batchSum - b.batchSum, a.batchN - b.batchN,
		a.fillSum - b.fillSum, a.fillN - b.fillN,
		a.epochs - b.epochs, a.incomplete - b.incomplete,
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics turns the run's spans and counts into the per-layer metrics.
// Times are per replayed operation, counts per measured operation; a layer
// the workload never calls reads 0.
func (t *tracer) metrics(ops int, oc obsCounts) map[string]metric {
	rp, n := float64(t.replayed), float64(ops)
	perOp := func(name string) float64 { return ratio(ms(t.total[name]), rp) }
	return map[string]metric{
		"netsim.fork_ms":                  {perOp("netsim.fork"), "ms"},
		"netsim.meter_ms":                 {perOp("netsim.meter"), "ms"},
		"spantree.heal_ms":                {perOp("spantree.heal"), "ms"},
		"spantree.repair_bits":            {ratio(t.count["repair_bits"], n), "bits"},
		"spantree.broadcast_ms":           {perOp("spantree.broadcast"), "ms"},
		"spantree.convergecast_ms":        {perOp("spantree.convergecast"), "ms"},
		"spantree.sweeps_per_op":          {ratio(t.count["sweeps"], rp), "count"},
		"agg.countvec_self_ms":            {ratio(ms(t.self["agg.countvec"]), rp), "ms"},
		"agg.minmax_ms":                   {perOp("agg.minmax"), "ms"},
		"agg.chain_width":                 {ratio(oc.chainSum, oc.chainN), "predicates"},
		"core.stepper_ms":                 {perOp("core.stepper"), "ms"},
		"core.seed_hit_ratio":             {ratio(t.count["seed_hits"], t.count["seeded"]), "hits/seeded"},
		"core.seeded_per_op":              {ratio(t.count["seeded"], n), "count"},
		"engine.oracle_ms":                {perOp("engine.oracle"), "ms"},
		"engine.submit_self_ms":           {ratio(t.count["submit_self_ms"], rp), "ms"},
		"engine.fusion_batch_size":        {ratio(oc.batchSum, oc.batchN), "members"},
		"engine.retries_per_op":           {ratio(t.count["retries"], n), "count"},
		"engine.sweeps_incomplete_per_op": {ratio(oc.incomplete, n), "count"},
		"serve.epoch_self_ms":             {ratio(t.count["epoch_self_ms"], n), "ms"},
		"serve.adhoc_wait_ms":             {ratio(t.count["adhoc_wait_ms"], t.count["adhoc"]), "ms"},
		// The program's fill histogram also observes every epoch, with the
		// held queries it merged: none here, as bursts never race epochs.
		"serve.window_fill":      {ratio(oc.fillSum, oc.fillN-oc.epochs), "queries"},
		"byz.localize_ms":        {perOp("byz.localize"), "ms"},
		"byz.trimmed_ms":         {perOp("byz.trimmed"), "ms"},
		"byz.audit_bits":         {ratio(t.count["audit_bits"], n), "bits"},
		"byz.audit_rounds":       {ratio(t.count["audit_rounds"], n), "count"},
		"byz.quarantined_per_op": {ratio(t.count["quarantined"], n), "count"},
	}
}

// timedOps is a spantree.Ops that spans every broadcast and convergecast
// of the engine it wraps. The fast engine picks its vector and scalar
// paths from the combiner's type, so wrapping the engine keeps them.
type timedOps struct {
	spantree.Ops
	tr *tracer
}

func (o *timedOps) Broadcast(p wire.Payload, apply spantree.Applier) {
	o.tr.begin("spantree.broadcast")
	o.Ops.Broadcast(p, apply)
	o.tr.end()
}

func (o *timedOps) Convergecast(c spantree.Combiner) (any, error) {
	o.tr.begin("spantree.convergecast")
	v, err := o.Ops.Convergecast(c)
	o.tr.end()
	o.tr.add("sweeps", 1)
	return v, err
}

// prim is the primitive-protocol surface the replayed selections and
// aggregates call: *agg.Net, or *byz.RobustNet on the robust tier.
type prim interface {
	MinMax(core.Domain) (lo, hi uint64, ok bool)
	CountVec(core.Domain, []wire.Pred, []uint64) []uint64
	MultiAggregate(core.Domain, wire.Pred) (count, sum, lo, hi uint64, ok bool)
}

// timedPrim spans every primitive call: MinMax under minmax, the probe
// sweeps under sweep.
type timedPrim struct {
	p             prim
	tr            *tracer
	minmax, sweep string
}

func (t timedPrim) MinMax(d core.Domain) (uint64, uint64, bool) {
	t.tr.begin(t.minmax)
	lo, hi, ok := t.p.MinMax(d)
	t.tr.end()
	return lo, hi, ok
}

func (t timedPrim) CountVec(d core.Domain, preds []wire.Pred, dst []uint64) []uint64 {
	t.tr.begin(t.sweep)
	out := t.p.CountVec(d, preds, dst)
	t.tr.end()
	return out
}

func (t timedPrim) MultiAggregate(d core.Domain, pred wire.Pred) (uint64, uint64, uint64, uint64, bool) {
	t.tr.begin(t.sweep)
	c, s, lo, hi, ok := t.p.MultiAggregate(d, pred)
	t.tr.end()
	return c, s, lo, hi, ok
}

// meterSince spans the meter read that closes a replayed operation.
func meterSince(tr *tracer, nw *netsim.Network, before netsim.Snapshot) netsim.Delta {
	tr.begin("netsim.meter")
	d := nw.Meter.Since(before)
	tr.end()
	return d
}
