package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// definition is the part of BENCHMARK.json the steadiness check reads.
type definition struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadyRuns is the number of runs in each of the two sets.
const steadyRuns = 10

// runSteady runs two sets of runs of this build per workload, each run a
// child process with its own seed, and prints for every end-to-end metric
// the two medians, the quartile spreads, and whether they stay within the
// metric's bound: each spread at most the bound, and the two medians apart
// by at most the bound, either way. No operation may fail in either set.
func runSteady(path string, seconds int) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	var def definition
	if err := json.Unmarshal(raw, &def); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
		return 2
	}
	if seconds <= 0 {
		seconds = def.RunSeconds
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	ok := true
	for _, w := range def.Workloads {
		wl := w.Name
		var sets [2][]report
		for s := range sets {
			for r := 0; r < steadyRuns; r++ {
				seed := uint64(1 + s*steadyRuns + r)
				rep, err := child(self, wl, seed, seconds)
				if err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", wl, seed, err)
					return 1
				}
				sets[s] = append(sets[s], rep)
			}
		}
		fmt.Printf("%s (%d runs a set, %ds each)\n", wl, steadyRuns, seconds)
		fmt.Printf("  %-16s %14s %14s %9s %9s %6s  %s\n", "metric", "median 1", "median 2", "spread 1", "spread 2", "bound", "verdict")
		for _, m := range def.EndToEnd {
			var med, spr [2]float64
			var vals [2][]float64
			for s := range sets {
				for _, rep := range sets[s] {
					vals[s] = append(vals[s], rep.Metrics[m.Name].Value)
				}
				med[s], spr[s] = quartileSpread(vals[s])
			}
			pass := math.Abs(med[1]-med[0]) <= m.Bound*med[0] && spr[0] <= m.Bound && spr[1] <= m.Bound
			ok = ok && pass
			fmt.Printf("  %-16s %14.6g %14.6g %9.4f %9.4f %6.3f  %s\n", m.Name, med[0], med[1], spr[0], spr[1], m.Bound, verdict(pass))
			if !pass {
				fmt.Printf("    values: %.5g | %.5g\n", vals[0], vals[1])
			}
		}
		var share [2]string
		for s := range sets {
			att, fail := 0, 0
			for _, rep := range sets[s] {
				att += rep.Attempted
				fail += rep.Failed
			}
			share[s] = strconv.Itoa(fail) + "/" + strconv.Itoa(att)
			ok = ok && fail == 0
		}
		fmt.Printf("  failed operations: %s and %s\n", share[0], share[1])
	}
	if !ok {
		fmt.Println("steadiness: FAIL")
		return 1
	}
	fmt.Println("steadiness: PASS")
	return 0
}

func verdict(pass bool) string {
	if pass {
		return "pass"
	}
	return "FAIL"
}

// quartileSpread returns the median and (Q3-Q1)/median, with the quartiles
// of Python's statistics.quantiles(values, n=4) (the exclusive method).
func quartileSpread(vals []float64) (float64, float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		h := p * float64(len(s)+1)
		j := int(math.Floor(h))
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (h-float64(j))*(s[j]-s[j-1])
	}
	med := q(0.5)
	if med == 0 {
		return 0, 0
	}
	return med, (q(0.75) - q(0.25)) / med
}

// child runs one benchmark run as a subprocess and parses its last line.
func child(self, wl string, seed uint64, seconds int) (report, error) {
	cmd := exec.Command(self, "--workload", wl, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return report{}, fmt.Errorf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return report{}, fmt.Errorf("result line: %w", err)
	}
	return rep, nil
}
