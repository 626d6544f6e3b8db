// Command perfbench is sensoragg's benchmark: it runs one workload for a
// fixed time, checks every answer against a computation of its own, and
// prints the end-to-end metrics (or, traced, the per-layer metrics) as
// one JSON object on the last line of standard output.
//
//	perfbench --workload select --seed 1 --seconds 25 --trace 0
//	perfbench --steady
//
// Run it through run.sh from the repository root, which builds it from
// source first. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// commit is stamped by run.sh (-ldflags -X); "unknown" outside a git
// checkout.
var commit = "unknown"

const (
	// setupBuilds is how many fresh deployments a run builds; setup_s is
	// their median.
	setupBuilds = 21
	// minOps leaves at least 10 samples beyond the printed p99.
	minOps = 1000
	// maxRunWall bounds a run that cannot reach minOps in time.
	maxRunWall = 150 * time.Second
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		wl      = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
		seed    = flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 0, "length of the timed phase (steady mode: default run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "1 replays every operation through the layer calls and reports per-layer metrics")
		steady  = flag.Bool("steady", false, "run two sets of runs per workload and judge their spread against BENCHMARK.json")
		bench   = flag.String("benchmark", "BENCHMARK.json", "steady mode: benchmark definition with the bounds")
	)
	flag.Parse()
	if *steady {
		os.Exit(runSteady(*bench, *seconds))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		os.Exit(2)
	}
	w, ok := workloads[*wl]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (known: %s)\n", *wl, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// One client drives each workload, and the engine's level-parallel
	// sweeps turn any stolen CPU on a small host into barrier waits: one P
	// keeps runs repeatable (the repository's bench gates pin it too).
	runtime.GOMAXPROCS(1)
	printProvenance(*wl, *seed, *seconds, *trace)
	rep, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if rep.Failed > 0 || !rep.Correct {
		os.Exit(1)
	}
}

func printProvenance(wl string, seed uint64, seconds, trace int) {
	p := map[string]any{
		"commit":     commit,
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   wl,
		"seed":       seed,
		"seconds":    seconds,
		"trace":      trace,
	}
	b, _ := json.Marshal(p) // a map of plain values always encodes
	fmt.Println("provenance", string(b))
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
