// Command wormbench is the benchmark of the wormnet simulator. It runs one
// workload for a fixed wall-clock budget in whole rounds, each round being
// every simulated run of the workload, checks every run's outputs, and
// prints the workload's metrics with the host they were measured on. The
// first round is the checking round: it runs every check, including those
// that copy engine state, in a process of its own (the hidden "check"
// mode), and is not timed. The timed rounds that follow must reproduce its
// results exactly. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 6, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root (run.sh builds the binary and runs it
// with GOMAXPROCS=1):
//
//	sh wormbench/run.sh --workload alo-saturated --seed 1 --seconds 25 --trace 0
//	sh wormbench/run.sh steady --runs 10 --seconds 25
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
// and traced rounds and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checkResult is what the checking round's process prints as its last line.
type checkResult struct {
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Failures     []string `json:"failures"`
	Fingerprints []string `json:"fingerprints"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		if err := steady(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "wormbench steady:", err)
			os.Exit(2)
		}
		return
	}
	checking := len(os.Args) > 1 && os.Args[1] == "check"
	args := os.Args[1:]
	if checking {
		args = args[1:]
	}
	fs := flag.NewFlagSet("wormbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload to run: alo-saturated, none-saturated-inline, flap-reconfig or figures-quick")
	seed := fs.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := fs.Int("seconds", 25, "wall-clock budget; whole rounds run until it is spent")
	trace := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.Parse(args)
	w, err := workloadByName(*name)
	if err == nil && *seconds < 1 {
		err = fmt.Errorf("--seconds must be at least 1")
	}
	if err == nil && *trace != 0 && *trace != 1 {
		err = fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		os.Exit(2)
	}

	// One P: the workload's Go code runs on one thread at a time, and the
	// sharded engine latches its inline single-goroutine schedule.
	runtime.GOMAXPROCS(1)
	if checking {
		line, _ := json.Marshal(runCheckingRound(w, *seed)) // strings and ints always marshal
		fmt.Println(string(line))
		return
	}
	hostJSON, _ := json.Marshal(hostRecord()) // a struct of strings and ints always marshals
	fmt.Printf("host %s\n", hostJSON)

	res, failures, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "check failed:", f)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		os.Exit(1)
	}
	report(os.Stdout, w.name, *seed, *trace, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runCheckingRound runs one round of w with every check, including those
// that copy engine state (snapshots, a serial reference engine) or run
// inside Step (CheckReconfiguration at each routing-epoch flip).
func runCheckingRound(w workload, seed uint64) checkResult {
	h := newHarness(false)
	h.beginRound(true, false)
	w.round(h, seed)
	r := h.endRound()
	fmt.Fprintf(os.Stderr, "checking round: %d runs, %d failed\n", r.engines(), r.failedOps())
	return checkResult{r.engines(), r.failedOps(), h.failures, r.fps}
}

// checkingRound runs the checking round of w in a process of its own, so
// the memory of its state copies stays out of this process's peak resident
// set, and returns what it found.
func checkingRound(w workload, seed uint64) (checkResult, error) {
	var res checkResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(self, "check", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("checking round: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("checking round: %w", err)
	}
	return res, nil
}

// runWorkload runs the checking round of w, then whole timed rounds until
// budget, counted from the start, is spent. It returns the result and every
// failed check. Every timed round must reproduce the checking round's
// results exactly. A traced run alternates untraced and traced rounds,
// starting untraced, and runs at least one of each.
func runWorkload(w workload, seed uint64, budget time.Duration, traced bool) (result, []string, error) {
	start := time.Now()
	ref, err := checkingRound(w, seed)
	if err != nil {
		return result{}, nil, err
	}
	h := newHarness(traced)
	h.ref = ref.Fingerprints
	h.failures = append(h.failures, ref.Failures...)
	var plain, instrumented []*round
	var out outcome
	attempted, failed := ref.Attempted, ref.Failed
	for i := 1; ; i++ {
		instrument := traced && i%2 == 0
		h.beginRound(false, instrument)
		if instrument {
			h.layers.beginRound()
		}
		o := w.round(h, seed)
		r := h.endRound()
		fmt.Fprintf(os.Stderr, "round %d traced=%v: %d runs, set-up %.4f s, %.1f cycles/s, step p50 %.1f us, cpu %.3f s\n",
			i, r.traced, r.engines(), r.setup.Seconds(), float64(r.cycles)/r.step.Seconds(), r.stepP50.Seconds()*1e6, r.mem.cpu.Seconds())
		attempted += r.engines()
		failed += r.failedOps()
		if i == 1 {
			out = o
		}
		if instrument {
			instrumented = append(instrumented, r)
		} else {
			plain = append(plain, r)
		}
		if time.Since(start) >= budget && (!traced || len(instrumented) > 0) {
			break
		}
	}

	var m map[string]metric
	if traced {
		m = layerMetrics(w, plain, instrumented, h.layers)
	} else {
		m = map[string]metric{
			"setup_s":             {median(plain, func(r *round) float64 { return r.setup.Seconds() }), "s"},
			"cycles_per_s":        {median(plain, func(r *round) float64 { return float64(r.cycles) / r.step.Seconds() }), "1/s"},
			"step_us_p50":         {median(plain, func(r *round) float64 { return r.stepP50.Seconds() * 1e6 }), "us"},
			"cpu_s":               {median(plain, func(r *round) float64 { return r.mem.cpu.Seconds() }), "s"},
			"peak_rss_mb":         {peakRSSMB(), "MB"},
			"accepted_fnc":        {out.accepted, "flits/node/cycle"},
			"latency_mean_cycles": {out.latency, "cycles"},
		}
	}
	return result{
		Correct:   h.roundFailures == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   m,
	}, h.failures, nil
}
