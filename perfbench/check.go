package main

import (
	"fmt"
	"math"
	"sort"
)

// The checkers in this file use no code of the program: they take the
// readings the benchmark itself holds (or replays, in fleet) and judge an
// answer by counting, in the terms of the paper's Definition 2.3 — y is
// the j-th smallest reading iff ℓ(y) < j ≤ ℓ(y+1), where ℓ(t) counts the
// readings below t.

// readings is the benchmark's own sorted copy of a multiset of readings,
// with prefix sums for the aggregate checks.
type readings struct {
	sorted []uint64
	prefix []uint64 // prefix[i] = sum of sorted[:i]
}

func newReadings(vals []uint64) *readings {
	r := &readings{}
	r.reset(vals)
	return r
}

// reset replaces the multiset, reusing the buffers.
func (r *readings) reset(vals []uint64) {
	r.sorted = append(r.sorted[:0], vals...)
	sort.Slice(r.sorted, func(i, k int) bool { return r.sorted[i] < r.sorted[k] })
	r.prefix = append(r.prefix[:0], 0)
	var s uint64
	for _, v := range r.sorted {
		s += v
		r.prefix = append(r.prefix, s)
	}
}

func (r *readings) n() int { return len(r.sorted) }

// below counts the readings < y; atMost counts the readings ≤ y.
func (r *readings) below(y uint64) int {
	return sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i] >= y })
}

func (r *readings) atMost(y uint64) int {
	return sort.Search(len(r.sorted), func(i int) bool { return r.sorted[i] > y })
}

// medianRank is ⌈n/2⌉, the integer rank Definition 2.3's MEDIAN = OS(X, N/2)
// lands on.
func medianRank(n int) int { return (n + 1) / 2 }

// quantileRank is ⌈φ·n⌉ with a floor of 1.
func quantileRank(phi float64, n int) int {
	j := int(math.Ceil(phi * float64(n)))
	if j < 1 {
		j = 1
	}
	return j
}

// toUint converts a reported answer, rejecting anything that is not a
// whole reading-domain value.
func toUint(v float64) (uint64, error) {
	if v < 0 || v != math.Trunc(v) || v > math.MaxUint64/2 {
		return 0, fmt.Errorf("answer %v is not a whole reading value", v)
	}
	return uint64(v), nil
}

// checkRank requires y to be exactly the j-th smallest reading.
func (r *readings) checkRank(y uint64, j int) error {
	return r.checkRankWindow(y, j, j, true)
}

// checkRankWindow requires y's rank among the readings to overlap
// [jLo, jHi]: at least jLo readings are ≤ y and fewer than jHi readings are
// below it. With member set, y must also be one of the readings.
func (r *readings) checkRankWindow(y uint64, jLo, jHi int, member bool) error {
	lt, le := r.below(y), r.atMost(y)
	if le < jLo || lt >= jHi {
		return fmt.Errorf("answer %d has rank (%d, %d], outside the window [%d, %d] over %d readings", y, lt, le, jLo, jHi, r.n())
	}
	if member && lt == le {
		return fmt.Errorf("answer %d is not one of the %d readings", y, r.n())
	}
	return nil
}

// aggs are the Fact 2.1 aggregates of one answer.
type aggs struct {
	count, sum, min, max uint64
}

// checkAggs requires the exact aggregates of the whole multiset.
func (r *readings) checkAggs(a aggs) error {
	n := r.n()
	want := aggs{count: uint64(n), sum: r.prefix[n], min: r.sorted[0], max: r.sorted[n-1]}
	if a != want {
		return fmt.Errorf("aggregates %+v, want %+v", a, want)
	}
	return nil
}

// checkAggsWindow accepts the aggregates of a sub-multiset that lost up to
// lost readings, with slack more positions of displacement: the count lies
// in [n-lost-slack, n-lost+slack], the sum between the sums of the count
// smallest and count largest readings, and the extrema within lost+slack
// positions of the true ones.
func (r *readings) checkAggsWindow(a aggs, lost, slack int) error {
	n := r.n()
	c := int(a.count)
	if c < n-lost-slack || c > n-lost+slack || c > n || c < 1 {
		return fmt.Errorf("count %d outside [%d, %d]", c, n-lost-slack, n-lost+slack)
	}
	lo, hi := r.prefix[c], r.prefix[n]-r.prefix[n-c]
	if a.sum < lo || a.sum > hi {
		return fmt.Errorf("sum %d outside [%d, %d] for %d readings", a.sum, lo, hi, c)
	}
	if err := r.checkRankWindow(a.min, 1, 1+lost+slack, slack == 0); err != nil {
		return fmt.Errorf("min: %w", err)
	}
	if err := r.checkRankWindow(a.max, n-lost-slack, n+1, slack == 0); err != nil {
		return fmt.Errorf("max: %w", err)
	}
	return nil
}

// rankWindow is the window of overall ranks an answer may hold when lost
// readings are missing from the n and slack bounds the integrity
// displacement. With slack 0 it is the survivor window: the j = rank(m)-th
// smallest of the m = n-lost survivors has rank j..j+lost overall. A slack
// widens it both ways: the protocol-counted population is within slack of
// m, and the answer's rank among the survivors within slack of the
// resolved rank.
func rankWindow(rank func(m int) int, n, lost, slack int) (int, int) {
	m := n - lost
	lo := rank(max(1, m-slack)) - slack
	hi := rank(min(n, m+slack)) + slack + lost
	return lo, hi
}
