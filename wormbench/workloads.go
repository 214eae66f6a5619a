package main

import (
	"fmt"
	"time"

	"wormnet/internal/baseline"
	"wormnet/internal/core"
	"wormnet/internal/experiments"
	"wormnet/internal/fault"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
)

// outcome is what a round reports beside its timings: the workload's two
// simulated end-to-end metrics.
type outcome struct {
	accepted float64 // flits/node/cycle in the measurement window
	latency  float64 // mean generation-to-delivery latency, cycles
}

// workload is one set of inputs. round runs every simulated run of the
// workload once, through h, and checks their outputs.
type workload struct {
	name  string
	k, n  int // the torus the routing layer is timed on
	round func(h *harness, seed uint64) outcome
}

var workloads = []workload{
	{name: "alo-saturated", k: 8, n: 3, round: aloSaturated},
	{name: "none-saturated-inline", k: 8, n: 3, round: noneSaturatedInline},
	{name: "flap-reconfig", k: flapK, n: 3, round: flapReconfig},
	{name: "figures-quick", k: 4, n: 2, round: figuresQuick},
}

// paperVCs is the paper's virtual-channel count, used by every workload
// (experiments.Quick keeps sim.DefaultConfig's, which is the same).
const paperVCs = 3

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// paperNetwork is the paper's router and traffic on a k-ary 3-cube: 3
// virtual channels of 4-flit buffers, TFAR routing with FC3D detection and
// software recovery, uniform destinations and 16-flit messages, offered at
// rate flits/node/cycle with the given limiter. Every field the workloads
// depend on is set here, so a change of the program's defaults does not
// change the benchmark's inputs unnoticed. The paper gives no figure for the
// software recovery cost; 128 cycles is the simulator's own.
func paperNetwork(k int, rate float64, limiter string, f core.Factory, seed uint64) sim.Config {
	c := sim.DefaultConfig()
	c.K, c.N = k, 3
	c.VCs, c.BufDepth = paperVCs, 4
	c.InjChannels, c.EjChannels = 4, 4
	c.Routing, c.Pattern, c.MsgLen = "tfar", "uniform", 16
	c.DetectionThreshold, c.RecoveryDelay = 32, 128
	c.Rate = rate
	c.Seed = seed
	return c.WithLimiter(limiter, f)
}

// saturatedWindows: 1000 cycles of warm-up and 3000 measured, about 3 s
// of host time per run at 512 nodes.
func saturatedWindows(c sim.Config) sim.Config {
	c.WarmupCycles, c.MeasureCycles, c.DrainCycles = 1000, 3000, 0
	return c
}

// uniformChecks are the checks every uniform-traffic run passes: the
// bisection bound, the zero-load latency floor and, below half the
// bisection bound, acceptance of the offered load.
func (h *harness) uniformChecks(name string) func(*sim.Engine) {
	return func(e *sim.Engine) {
		c, r := e.Config(), e.Collector().Result()
		h.checked(name, checkBisection(r.Accepted, c.K))
		h.checked(name, checkZeroLoad(r.AvgNetLatency, c.K, c.N, c.MsgLen))
		if c.Rate <= 4/float64(c.K) {
			h.checked(name, checkOffered(r.Accepted, c.Rate, e.Topology().Nodes(), c.MeasureCycles, c.MsgLen))
		}
	}
}

// aloSaturated runs the paper's network with ALO at 0.9 flits/node/cycle,
// about 1.4x ALO's saturation point, on the serial engine.
func aloSaturated(h *harness, seed uint64) outcome {
	const name = "alo-saturated"
	cfg := saturatedWindows(paperNetwork(8, 0.9, "alo", core.NewALO(), seed))
	e := h.run(runSpec{
		name:       name,
		cfg:        cfg,
		checkEvery: 500,
		check: func(e *sim.Engine) error {
			if err := e.CheckInvariants(); err != nil {
				return err
			}
			return e.VerifyInjectionProperty()
		},
		after: h.uniformChecks(name),
	})
	r := e.Collector().Result()
	return outcome{r.Accepted, r.AvgLatency}
}

// noneSaturatedInline runs the same network and load with no limiter on
// the sharded kernel: 2 workers on one P select its inline schedule.
func noneSaturatedInline(h *harness, seed uint64) outcome {
	const name = "none-saturated-inline"
	cfg := saturatedWindows(paperNetwork(8, 0.9, "none", baseline.NewNone(), seed))
	cfg.Workers = 2
	uniform := h.uniformChecks(name)
	e := h.run(runSpec{
		name:       name,
		cfg:        cfg,
		checkEvery: cfg.TotalCycles() / 2,
		check:      func(e *sim.Engine) error { return snapshotRoundTrip(cfg, e) },
		after: func(e *sim.Engine) {
			uniform(e)
			if e.Recovered() == 0 {
				h.fail("%s: no deadlock recovery fired", name)
			}
			// Timed rounds reproduce the checking round exactly, so
			// comparing it with the serial engine covers every round.
			if h.checking {
				h.checked(name, serialEquivalent(cfg, e))
			}
		},
	})
	r := e.Collector().Result()
	return outcome{r.Accepted, r.AvgLatency}
}

// serialEquivalent checks that the serial engine, run on cfg, ends with the
// same results and counters as e.
func serialEquivalent(cfg sim.Config, e *sim.Engine) error {
	cfg.Workers = 0
	ref, err := sim.New(cfg)
	if err != nil {
		return fmt.Errorf("serial reference: %w", err)
	}
	ref.Run()
	if got, want := fingerprint(e), fingerprint(ref); got != want {
		return fmt.Errorf("sharded results differ from the serial engine:\n  sharded %s\n  serial  %s", got, want)
	}
	return nil
}

// snapshotRoundTrip checks that a snapshot restored into a fresh engine
// snapshots back to the same canonical state.
func snapshotRoundTrip(cfg sim.Config, e *sim.Engine) error {
	snap, err := e.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	want, err := snap.CanonicalHash()
	if err != nil {
		return fmt.Errorf("canonical hash: %w", err)
	}
	restored, err := sim.RestoreEngine(cfg, snap)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	defer restored.Close()
	again, err := restored.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot of restored engine: %w", err)
	}
	got, err := again.CanonicalHash()
	if err != nil {
		return fmt.Errorf("canonical hash of restored engine: %w", err)
	}
	if got != want {
		return fmt.Errorf("restored engine's canonical hash %x differs from the original's %x", got[:8], want[:8])
	}
	return nil
}

// The flap-reconfig network and fault timeline: 1% of the 12-ary 3-cube's
// channels fail together at flapAt, heal flapRepair cycles later, and fail
// and heal again every flapPeriod cycles, flapDowns times in all. The
// measurement window opens 500 cycles after the last repair.
const (
	flapK      = 12
	flapAt     = 200
	flapRepair = 100
	flapPeriod = 200
	flapDowns  = 3
	flapHealed = flapAt + (flapDowns-1)*flapPeriod + flapRepair
)

// flapSchedule picks round(1%) of t's unidirectional channels with a
// SplitMix64 stream of seed and schedules their flaps.
func flapSchedule(t *topology.Torus, seed uint64) *fault.Schedule {
	links := t.Nodes() * t.NumPorts()
	pick := make([]int, links)
	for i := range pick {
		pick[i] = i
	}
	n := (links + 50) / 100
	state := seed
	for i := 0; i < n; i++ { // partial Fisher-Yates shuffle
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		j := i + int(z%uint64(links-i))
		pick[i], pick[j] = pick[j], pick[i]
	}
	s := &fault.Schedule{}
	for _, li := range pick[:n] {
		node, port := topology.NodeID(li/t.NumPorts()), topology.Port(li%t.NumPorts())
		for f := int64(0); f < flapDowns; f++ {
			down := flapAt + f*flapPeriod
			s.FailLink(down, node, port)
			s.RestoreLink(down+flapRepair, node, port)
		}
	}
	return s
}

// flapReconfig runs a 12-ary 3-cube at 0.2 flits/node/cycle with ALO while
// 1% of its links flap, so set-up and the candidate-table rebuild at each
// routing epoch dominate.
func flapReconfig(h *harness, seed uint64) outcome {
	const name = "flap-reconfig"
	cfg := paperNetwork(flapK, 0.2, "alo", core.NewALO(), seed)
	sched := flapSchedule(topology.New(flapK, 3), seed)
	cfg = cfg.WithFaults(sched)
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = flapHealed+500, 1000, 0
	uniform := h.uniformChecks(name)
	e := h.run(runSpec{
		name: name,
		cfg:  cfg,
		// The transition check rebuilds the whole table, as long again as
		// the engine's own rebuild; it runs in the checking round.
		onFlip: func(e *sim.Engine) error { return e.CheckReconfiguration() },
		after: func(e *sim.Engine) {
			h.checked(name, checkEpochs(e.Epoch(), sched.Events()))
			if !e.Liveness().AllAlive() {
				h.fail("%s: %d links still down after the last repair", name, e.Liveness().DownLinks())
			}
			uniform(e)
		},
	})
	r := e.Collector().Result()
	return outcome{r.Accepted, r.AvgLatency}
}

// figuresQuick regenerates every paper figure at experiments.Quick scale
// through Experiment.Run, with the harness as its Executor.
func figuresQuick(h *harness, seed uint64) outcome {
	scale := experiments.Quick()
	scale.Seed = seed
	exec := func(cfg sim.Config) *sim.Engine {
		name := fmt.Sprintf("figures-quick %s/%s/%d-flit@%.2f", cfg.Pattern, cfg.LimiterName, cfg.MsgLen, cfg.Rate)
		spec := runSpec{name: name, cfg: cfg}
		if cfg.Pattern == "uniform" {
			spec.after = h.uniformChecks(name)
		}
		return h.run(spec)
	}
	var out outcome
	t0 := time.Now()
	for _, ex := range experiments.All() {
		first := h.r.engines()
		rep := ex.Run(scale, exec)
		failures := len(h.failures)
		for _, ser := range rep.Series {
			for _, p := range ser.Points {
				where := fmt.Sprintf("figures-quick %s %s@%.2f", rep.ID, ser.Name, p.Offered)
				if p.Probe != nil {
					h.checked(where, checkRuleRow(p.Probe.PercentA(), p.Probe.PercentB(), p.Probe.PercentEither()))
				}
				if d := p.Deviations; rep.ID == "fig4" {
					if len(d) == 0 {
						h.fail("%s: no per-node deviations", where)
					} else {
						h.checked(where, checkDeviationSpread(d[0], d[len(d)-1]))
					}
				}
			}
			// Figure 5's ALO curve at its highest offered load gives the
			// workload's simulated metrics.
			if rep.ID == "fig5" && ser.Name == "alo" {
				last := ser.Points[len(ser.Points)-1]
				out = outcome{last.Result.Accepted, last.Result.AvgLatency}
			}
		}
		if len(h.failures) > failures {
			h.failOps(first, h.r.engines())
		}
	}
	h.r.experiments = time.Since(t0)
	return out
}
