// Command perfbench is the end-to-end benchmark of the co-analysis
// system. It generates one campaign from its seed, drives a shipped
// entry point over it as a child process for a fixed time, checks
// every output, and prints one JSON result line.
//
// Usage (from the repository root; run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload analyze --seed 1 --seconds 15 --trace 0
//
// Workloads: generate (bgpgen), analyze (coanalyze), analyze-bounded
// (coanalyze -mem-budget) and serve (bgpd over HTTP). With --trace 1 it
// also makes one in-process run of the same exported calls with a span
// around each, and prints per-layer metrics instead of end-to-end ones.
// See README.md for the metrics and what each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setUpRuns is how many times set-up runs; setup_s is their median.
const setUpRuns = 3

// endToEnd lists the end-to-end metrics, printed with --trace 0.
var endToEnd = []layerMetric{
	{"setup_s", "s"}, {"wall_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mib", "MiB"}, {"latency_p50_ms", "ms"},
}

// workloads maps each workload to its operation. An operation is one
// whole round of the workload: one CLI invocation, or one replay of
// the campaign into a fresh daemon.
var workloads = map[string]func(*bench) (round, error){
	"generate":        cliRound(generateOp),
	"analyze":         cliRound(analyzeOp),
	"analyze-bounded": cliRound(boundedOp),
	"serve":           serveOp,
}

// bench is one benchmark run.
type bench struct {
	workload string
	binDir   string
	work     string // scratch directory, removed at exit
	sp       *spawner
	c        *campaign
	replay   *replay // serve only
}

func (b *bench) bin(name string) string { return filepath.Join(b.binDir, name) }

// round is what one operation did and cost.
type round struct {
	u                 usage
	ok                bool // the timed operation succeeded, so u counts
	attempted, failed int
	// latencies are the client-visible request latencies: the
	// invocation itself for a CLI, the open-loop queries for serve.
	latencies []time.Duration
	serve     *serveStats
}

// errMismatch marks an output that disagrees with its reference: the
// run is then incorrect, not merely failed.
var errMismatch = errors.New("output mismatch")

func mismatch(err error) error { return fmt.Errorf("%w: %w", errMismatch, err) }

func cliRound(op func(*bench) (usage, error)) func(*bench) (round, error) {
	return func(b *bench) (round, error) {
		u, err := op(b)
		r := round{u: u, ok: err == nil, attempted: 1, latencies: []time.Duration{u.Wall}}
		if err != nil && !errors.Is(err, errMismatch) {
			fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
			r.failed, err = 1, nil
		}
		return r, err
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == "-spawner" {
		if err := spawnerMain(); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spawner:", err)
			os.Exit(1)
		}
		return
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: generate, analyze, analyze-bounded or serve")
		seed    = fs.Int64("seed", 1, "campaign seed")
		seconds = fs.Int("seconds", 15, "how long to measure")
		trace   = fs.Int("trace", 0, "1: add a traced run and print per-layer metrics")
		binDir  = fs.String("bin", "", "directory holding the built bgpgen, coanalyze and bgpd")
		work    = fs.String("work", "", "scratch directory (created, and removed at exit)")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if _, ok := workloads[*name]; !ok || *binDir == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload (generate, analyze, analyze-bounded or serve), --bin, --work, --seconds >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *binDir, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds time.Duration, traced bool, binDir, work string) (*result, error) {
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	sp, err := startSpawner()
	if err != nil {
		return nil, err
	}
	defer sp.close()
	b := &bench{workload: name, binDir: binDir, work: work, sp: sp}

	var setups []time.Duration
	for i := 0; i < setUpRuns; i++ {
		prev := b.c
		runtime.GC()
		start := time.Now()
		c, err := setUp(seed, work, name == "serve")
		if err == nil && name == "serve" {
			b.replay, err = newReplay(c)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start))
		if prev != nil && !sameCampaign(prev, c) {
			return nil, fmt.Errorf("set-up is not deterministic: two runs at seed %d differ", seed)
		}
		b.c = c
	}
	fmt.Fprintf(os.Stderr, "perfbench: seed %d: campaign seed %d, %d RAS records (%d FATAL, noise %.2f), %d jobs; oracle recall %.3f precision %.3f\n",
		seed, b.c.seed, b.c.ref.scan.RASLines, b.c.ref.scan.Fatal, b.c.noise, b.c.ref.scan.JobLines, b.c.recall, b.c.precision)
	runtime.GC()

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var rounds []round
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < seconds {
		r, err := workloads[name](b)
		if errors.Is(err, errMismatch) {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.Correct = false
			break
		}
		if err != nil {
			return nil, err
		}
		res.Attempted += r.attempted
		res.Failed += r.failed
		rounds = append(rounds, r)
	}
	if !res.Correct {
		return res, nil
	}
	var walls, cpus, rss, lats []float64
	for _, r := range rounds {
		if !r.ok {
			continue
		}
		walls = append(walls, r.u.Wall.Seconds())
		cpus = append(cpus, r.u.CPU.Seconds())
		rss = append(rss, float64(r.u.RSSKB)/1024)
		for _, l := range r.latencies {
			lats = append(lats, float64(l)/1e6)
		}
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("every operation failed")
	}
	if !traced {
		setupS := make([]float64, len(setups))
		for i, d := range setups {
			setupS[i] = d.Seconds()
		}
		for i, v := range []float64{median(setupS), median(walls), median(cpus), median(rss), median(lats)} {
			res.Metrics[endToEnd[i].name] = metric{v, endToEnd[i].unit}
		}
		return res, nil
	}
	layers, err := tracedRun(b, median(walls), rounds)
	if errors.Is(err, errMismatch) {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Correct = false
	} else if err != nil {
		return nil, err
	}
	res.Metrics = layers
	return res, nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
