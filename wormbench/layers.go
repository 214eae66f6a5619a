package main

import (
	"time"

	"wormnet/internal/metrics"
	"wormnet/internal/routing"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
)

// The traced run reads the engine's own metrics and spans (EnableMetrics,
// EnableSpans) at their default sampling periods, and adds the benchmark's
// timers around the public calls it makes.

// layerAgg folds the registries of the traced rounds' engines.
type layerAgg struct {
	hist   map[string]*[2]float64 // histogram sum and count, over every traced round
	counts map[string]float64     // counters, summed over the last traced round's engines
	occ    [2]float64             // sampled input-VC occupancy: sum, samples
	queue  [2]float64             // sampled network-wide source-queue depth: sum, samples
}

func newLayerAgg() *layerAgg {
	return &layerAgg{hist: map[string]*[2]float64{}}
}

// beginRound starts the per-round counts of a traced round. The counts are
// simulated quantities and repeat exactly in every round.
func (a *layerAgg) beginRound() {
	a.counts = map[string]float64{}
	a.occ, a.queue = [2]float64{}, [2]float64{}
}

// attach enables metrics and spans on a fresh engine and returns the
// function that folds its registry once the run has ended.
func (a *layerAgg) attach(e *sim.Engine) func() {
	reg := metrics.NewRegistry()
	e.EnableMetrics(reg, 0)
	e.EnableSpans(reg, 0, nil)
	// NewGauge returns the gauges the engine registered under these names.
	occ := reg.NewGauge("sim_input_vc_occupancy_ratio", "")
	queue := reg.NewGauge("sim_source_queue_depth", "")
	e.SetSampleHook(func(int64) {
		a.occ[0] += occ.Value()
		a.occ[1]++
		a.queue[0] += queue.Value()
		a.queue[1]++
	})
	return func() {
		for _, s := range reg.Snapshot() {
			switch s.Kind {
			case metrics.KindCounter:
				a.counts[s.Name] += s.Value
			case metrics.KindHistogram:
				h := a.hist[s.Name]
				if h == nil {
					h = &[2]float64{}
					a.hist[s.Name] = h
				}
				h[0] += s.Sum
				h[1] += float64(s.N)
			}
		}
	}
}

// mean returns the mean of a folded histogram, or 0 if it saw nothing.
func (a *layerAgg) mean(name string) float64 {
	if h := a.hist[name]; h != nil && h[1] > 0 {
		return h[0] / h[1]
	}
	return 0
}

func ratio(s [2]float64) float64 {
	if s[1] == 0 {
		return 0
	}
	return s[0] / s[1]
}

// candidateTiming times routing.Algorithm.Candidates over every node pair
// of a k-ary n-cube under TFAR with the paper's virtual channels, repeating whole sweeps until at least
// 200 ms have been timed. It returns the time per call and the pairs of
// one sweep.
func candidateTiming(k, n int) (perCall time.Duration, pairs int) {
	topo := topology.New(k, n)
	alg := routing.NewTFAR(topo, paperVCs)
	nodes := topo.Nodes()
	var out []routing.Candidate
	var calls int64
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for cur := 0; cur < nodes; cur++ {
			for dst := 0; dst < nodes; dst++ {
				out = alg.Candidates(topology.NodeID(cur), topology.NodeID(dst), out[:0])
			}
		}
		calls += int64(nodes) * int64(nodes)
	}
	return time.Since(t0) / time.Duration(calls), nodes * nodes
}

// layerMetrics assembles the per-layer metrics of a traced run from its
// untraced rounds (host costs of the real path), its traced rounds (the
// engine's metrics and spans) and the routing-layer timing.
func layerMetrics(w workload, plain, traced []*round, a *layerAgg) map[string]metric {
	last := traced[len(traced)-1]
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	var news []int64
	for _, r := range append(append([]*round{}, plain...), traced...) {
		for _, d := range r.newTimes {
			news = append(news, int64(d))
		}
	}
	put("sim.new_ms", quantile(news, 0.5)/1e6, "ms")
	for _, p := range []string{"generate", "inject", "route", "switch", "move"} {
		put("sim.phase."+p+"_ns", a.mean("sim_phase_"+p+"_ns"), "ns")
	}
	put("sim.cycle_ns", a.mean("sim_cycle_ns"), "ns")
	put("sim.ring_pushes", a.counts["sim_ring_pushes_total"], "count")
	put("sim.reconfig_ms", median(plain, func(r *round) float64 {
		if r.reconfigN == 0 {
			return 0
		}
		return r.reconfig.Seconds() * 1e3 / float64(r.reconfigN)
	}), "ms")
	put("sim.reconfig_steps", float64(plain[0].reconfigN), "count")
	put("sim.step_us_p99", median(plain, func(r *round) float64 { return r.stepP99.Seconds() * 1e6 }), "us")
	put("sim.allocs_per_cycle", median(plain, func(r *round) float64 { return float64(r.mem.mallocs) / float64(r.cycles) }), "allocs/cycle")
	put("sim.alloc_bytes_per_cycle", median(plain, func(r *round) float64 { return float64(r.mem.allocBytes) / float64(r.cycles) }), "B/cycle")
	put("runtime.gc_cycles", median(plain, func(r *round) float64 { return float64(r.mem.gcs) }), "count")
	put("runtime.gc_pause_ms", median(plain, func(r *round) float64 { return float64(r.mem.gcPause) / 1e6 }), "ms")

	perCall, pairs := candidateTiming(w.k, w.n)
	put("routing.candidates_ns", float64(perCall.Nanoseconds()), "ns")
	put("routing.pairs", float64(pairs), "count")

	put("core.admitted", a.counts["sim_injection_admitted_total"], "count")
	put("core.denied", a.counts["sim_injection_denied_total"], "count")
	put("core.deny_rule_a", a.counts["sim_injection_deny_rule_a_total"], "count")
	put("core.deny_rule_b", a.counts["sim_injection_deny_rule_b_total"], "count")
	put("router.flits_per_cycle", a.counts["sim_flits_moved_total"]/float64(last.cycles), "flits/cycle")
	put("router.vc_occupancy", ratio(a.occ), "ratio")
	put("deadlock.recoveries", float64(last.sim.recovered), "count")
	put("traffic.generated", float64(last.sim.generated), "count")
	put("traffic.queue_depth", ratio(a.queue), "messages")
	put("span.queue_wait_cycles", a.mean("sim_span_queue_wait_cycles"), "cycles")
	put("span.hop_block_cycles", a.mean("sim_span_hop_block_cycles"), "cycles")
	put("span.net_latency_cycles", a.mean("sim_span_net_latency_cycles"), "cycles")
	put("span.hops", a.mean("sim_span_hops"), "count")
	put("fault.epochs", float64(last.sim.epochs), "count")
	put("fault.aborted", float64(last.sim.aborted), "count")
	put("fault.retried", float64(last.sim.retried), "count")
	put("fault.dropped", float64(last.sim.dropped), "count")

	var engines float64
	if last.experiments > 0 {
		engines = float64(last.engines())
	}
	put("experiments.engines", engines, "count")
	put("experiments.new_ms", median(plain, func(r *round) float64 {
		if r.experiments == 0 {
			return 0
		}
		return r.setup.Seconds() * 1e3
	}), "ms")
	put("experiments.run_s", median(plain, func(r *round) float64 { return r.experiments.Seconds() }), "s")

	cps := func(r *round) float64 { return float64(r.cycles) / r.step.Seconds() }
	plainCPS, tracedCPS := median(plain, cps), median(traced, cps)
	put("metrics.overhead_pct", (plainCPS-tracedCPS)/plainCPS*100, "%")
	return m
}
