package main

import (
	"testing"

	"sensoragg/internal/engine"
)

// testReadings are 1..n, each twice: ranks 2v-1 and 2v hold v.
func testReadings(n int) *readings {
	vals := make([]uint64, 0, 2*n)
	for v := n; v >= 1; v-- {
		vals = append(vals, uint64(v), uint64(v))
	}
	return newReadings(vals)
}

// atRank is the reading at 1-based rank j of testReadings.
func atRank(j int) float64 { return float64((j + 1) / 2) }

func wantCaught(t *testing.T, name string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: off-by-one answer accepted", name)
	}
}

func wantPass(t *testing.T, name string, err error) {
	t.Helper()
	if err != nil {
		t.Errorf("%s: correct answer rejected: %v", name, err)
	}
}

func TestExactCheckerCatchesOffByOne(t *testing.T) {
	rd := testReadings(50) // 100 readings
	med := engine.Query{Kind: engine.KindMedian}
	wantPass(t, "median", checkExact(rd, engine.Result{Query: med, Value: atRank(50)}))
	wantCaught(t, "median+1", checkExact(rd, engine.Result{Query: med, Value: atRank(50) + 1}))
	wantCaught(t, "median-1", checkExact(rd, engine.Result{Query: med, Value: atRank(50) - 1}))

	os := engine.Query{Kind: engine.KindOrderStat, K: 7}
	wantPass(t, "os", checkExact(rd, engine.Result{Query: os, Value: atRank(7)}))
	wantCaught(t, "os+1", checkExact(rd, engine.Result{Query: os, Value: atRank(7) + 1}))

	qs := engine.Query{Kind: engine.KindQuantiles, Phis: []float64{0.25, 0.5, 0.75}}
	right := []float64{atRank(25), atRank(50), atRank(75)}
	wantPass(t, "quantiles", checkExact(rd, engine.Result{Query: qs, Values: right}))
	for i := range right {
		off := append([]float64(nil), right...)
		off[i]++
		wantCaught(t, "quantiles", checkExact(rd, engine.Result{Query: qs, Values: off}))
	}

	fused := engine.Query{Kind: engine.KindFused, Aggs: []string{"count", "sum", "min", "max"}}
	exact := []float64{100, 2 * 1275, 1, 50}
	wantPass(t, "fused", checkExact(rd, engine.Result{Query: fused, Values: exact}))
	for i := range exact {
		off := append([]float64(nil), exact...)
		off[i]++
		wantCaught(t, "fused "+fused.Aggs[i], checkExact(rd, engine.Result{Query: fused, Values: off}))
	}
}

func TestSurvivorCheckerCatchesOffByOne(t *testing.T) {
	rd := testReadings(50)
	const lost = 6 // 94 survivors: the median is the 47th of them
	med := engine.Query{Kind: engine.KindMedian}
	// Overall, the 47th survivor sits at rank 47..53.
	for j := 47; j <= 53; j++ {
		wantPass(t, "median in window", checkRanksLost(rd, engine.Result{Query: med, Value: atRank(j)}, lost, 0))
	}
	// The readings next to it, 23 (ranks 45-46) and 28 (ranks 55-56), lie
	// outside.
	wantCaught(t, "median below window", checkRanksLost(rd, engine.Result{Query: med, Value: atRank(45)}, lost, 0))
	wantCaught(t, "median above window", checkRanksLost(rd, engine.Result{Query: med, Value: atRank(55)}, lost, 0))

	qs := engine.Query{Kind: engine.KindQuantiles, Phis: []float64{0.5}}
	wantPass(t, "quantile", checkRanksLost(rd, engine.Result{Query: qs, Values: []float64{atRank(53)}}, lost, 0))
	wantCaught(t, "quantile above window", checkRanksLost(rd, engine.Result{Query: qs, Values: []float64{atRank(55)}}, lost, 0))
}

func TestRobustCheckerCatchesOffByOne(t *testing.T) {
	rd := testReadings(50)
	const lost, bound = 2, 2 // 98 honest survivors, ±2 displacement
	// The protocol's N is 96..100, so the median rank is 48..50; the answer
	// may sit 2 further either way and 2 lost readings higher: ranks 46..54.
	med := engine.Query{Kind: engine.KindMedian}
	for _, j := range []int{46, 54} {
		wantPass(t, "median at window edge", checkRanksLost(rd, engine.Result{Query: med, Value: atRank(j)}, lost, bound))
	}
	wantCaught(t, "median below window", checkRanksLost(rd, engine.Result{Query: med, Value: atRank(43)}, lost, bound))
	wantCaught(t, "median above window", checkRanksLost(rd, engine.Result{Query: med, Value: atRank(57)}, lost, bound))

	fused := engine.Query{Kind: engine.KindFused, Aggs: []string{"count", "sum", "min", "max"}}
	ok := []float64{98, 2*1275 - 50, 1, 50}
	wantPass(t, "fused", checkRanksLost(rd, engine.Result{Query: fused, Values: ok}, lost, bound))
	wantCaught(t, "count beyond bound", checkRanksLost(rd, engine.Result{Query: fused, Values: []float64{101, 2 * 1275, 1, 50}}, lost, bound))
	wantCaught(t, "sum above the count's largest", checkRanksLost(rd, engine.Result{Query: fused, Values: []float64{98, 2*1275 - 1, 1, 50}}, lost, bound))
}

func TestStatementCheckerCatchesOffByOne(t *testing.T) {
	rd := testReadings(50)
	for _, c := range []struct {
		st   statement
		good float64
	}{
		{newStatement("median", nil), atRank(50)},
		{newStatement("quantiles", []float64{0.25}), atRank(25)},
		{newStatement("count", nil), 100},
		{newStatement("sum", nil), 2 * 1275},
		{newStatement("min", nil), 1},
		{newStatement("max", nil), 50},
		{newStatement("avg", nil), 25.5},
	} {
		wantPass(t, c.st.text, checkStatement(rd, c.st, engine.Result{Value: c.good}))
		wantCaught(t, c.st.text, checkStatement(rd, c.st, engine.Result{Value: c.good + 1}))
	}
	if got := newStatement("quantiles", []float64{0.1, 0.9}).text; got != "SELECT quantiles(value, 0.1, 0.9)" {
		t.Errorf("statement text %q", got)
	}
}
