package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady is the steadiness command. It runs every workload --runs times,
// each run in its own process with seeds 1, 2, ... --runs, and prints for every
// end-to-end metric the median, the quartiles and the quartile spread
// (Q3-Q1)/median over the runs, beside the metric's bound from
// BENCHMARK.json when the working directory has one. A metric is steady on
// a host when its spread stays below a third of its bound there.
func steady(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	runs := fs.Int("runs", 10, "runs per workload")
	seconds := fs.Int("seconds", 25, "budget of each run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("--runs must be at least 2")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bounds := readBounds()
	hostJSON, _ := json.Marshal(hostRecord()) // a struct of strings and ints always marshals
	fmt.Printf("host %s\nruns %d seconds %d seeds 1..%d\n", hostJSON, *runs, *seconds, *runs)
	for _, w := range workloads {
		name := w.name
		values := map[string][]float64{}
		units := map[string]string{}
		var failedShares []string
		for s := 1; s <= *runs; s++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.Itoa(s),
				"--seconds", strconv.Itoa(*seconds), "--trace", "0")
			cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d: outputs incorrect", name, s)
			}
			failedShares = append(failedShares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
				units[m] = v.Unit
			}
		}
		fmt.Printf("\n%s (failed/attempted per run: %s)\n", name, strings.Join(failedShares, " "))
		fmt.Printf("  %-20s %-16s %14s %14s %14s %8s %7s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound")
		metricNames := make([]string, 0, len(values))
		for m := range values {
			metricNames = append(metricNames, m)
		}
		sort.Strings(metricNames)
		for _, m := range metricNames {
			q1, med, q3 := quartiles(values[m])
			bound := "-"
			if b, ok := bounds[m]; ok {
				bound = strconv.FormatFloat(b, 'f', -1, 64)
			}
			fmt.Printf("  %-20s %-16s %14.6g %14.6g %14.6g %8.4f %7s\n", m, units[m], med, q1, q3, (q3-q1)/med, bound)
		}
	}
	return nil
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld, n := len(d), 4
	q := make([]float64, 3)
	for i := 1; i < n; i++ {
		j := i * (ld + 1) / n
		j = max(1, min(j, ld-1))
		delta := i*(ld+1) - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / float64(n)
	}
	return q[0], q[1], q[2]
}

// readBounds returns the end-to-end bounds declared in ./BENCHMARK.json, or
// none when it is absent or unreadable.
func readBounds() map[string]float64 {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if json.Unmarshal(b, &spec) != nil {
		return nil
	}
	m := map[string]float64{}
	for _, e := range spec.EndToEnd {
		m[e.Name] = e.Bound
	}
	return m
}
