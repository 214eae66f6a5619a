package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"syscall"
	"time"

	"wormnet/internal/sim"
	"wormnet/internal/trace"
)

// The harness measures the simulator from outside: it times the calls into
// sim.New and Engine.Step and runs every check on the engines it builds.
// The checks that copy engine state or step inside the engine run only in
// the checking round, a process of its own (see checkingRound), so neither
// their time nor their memory reaches a timed round.

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// eventCount is the benchmark-side trace.Listener: it counts generation and
// delivery events independently of the engine's own counters.
type eventCount struct{ generated, delivered int64 }

// Emit implements trace.Listener.
func (c *eventCount) Emit(ev trace.Event) {
	switch ev.Kind {
	case trace.KindGenerated:
		c.generated++
	case trace.KindDelivered:
		c.delivered++
	}
}

// usage is a reading of the resources the harness accounts for. The memory
// fields are read only when harness.memStats is set (ReadMemStats stops the
// world).
type usage struct {
	cpu                 time.Duration
	mallocs, allocBytes uint64
	gcs                 uint32
	gcPause             uint64
}

func (u usage) sub(v usage) usage {
	return usage{
		cpu:     u.cpu - v.cpu,
		mallocs: u.mallocs - v.mallocs, allocBytes: u.allocBytes - v.allocBytes,
		gcs: u.gcs - v.gcs, gcPause: u.gcPause - v.gcPause,
	}
}

func (u usage) add(v usage) usage {
	return usage{
		cpu:     u.cpu + v.cpu,
		mallocs: u.mallocs + v.mallocs, allocBytes: u.allocBytes + v.allocBytes,
		gcs: u.gcs + v.gcs, gcPause: u.gcPause + v.gcPause,
	}
}

func (h *harness) read() usage {
	u := usage{cpu: cpuTime()}
	if h.memStats {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		u.mallocs, u.allocBytes = ms.Mallocs, ms.TotalAlloc
		u.gcs, u.gcPause = ms.NumGC, ms.PauseTotalNs
	}
	return u
}

// round accumulates the measurements of one round: one pass over every
// simulated run the workload makes.
type round struct {
	traced bool // metrics and spans were on

	setup     time.Duration   // sim.New, summed over the round's engines
	step      time.Duration   // Engine.Step, summed
	cycles    int64           // cycles stepped, summed over engines
	newTimes  []time.Duration // one per engine
	steps     []uint32        // ns per Step, every Step of the round
	mem       usage           // CPU and GC over set-up and stepping; allocations over stepping
	reconfig  time.Duration   // Step time on cycles whose routing epoch advanced
	reconfigN int64

	experiments time.Duration // wall time of Experiment.Run (figures-quick)

	// failed has one entry per operation, in the order they ran: whether
	// any check of that operation failed.
	failed []bool
	fps    []string // per-operation result fingerprints, in the order they ran
	sim    simCounts

	// Filled in by endRound.
	stepP50, stepP99 time.Duration
}

// engines is the number of operations the round ran.
func (r *round) engines() int { return len(r.failed) }

// failedOps is the number of the round's operations with a failed check.
func (r *round) failedOps() int {
	n := 0
	for _, f := range r.failed {
		if f {
			n++
		}
	}
	return n
}

// simCounts are simulated totals over a round's engines.
type simCounts struct {
	recovered, generated, epochs, aborted, retried, dropped int64
}

// harness builds, steps and checks engines for the workloads.
type harness struct {
	memStats bool // read allocation and GC counts (traced runs)
	traced   bool // this round enables metrics and spans on every engine
	checking bool // this is the checking round: run the checks that copy or step inside the engine
	layers   *layerAgg

	// ref holds the checking round's fingerprints; every timed round must
	// reproduce them exactly. pending is what the current round has not yet
	// matched.
	ref     []string
	pending map[string]int

	mu       sync.Mutex // serialises runs: the experiments runner starts them on goroutines
	r        *round
	stepBuf  []uint32
	failures []string
	// roundFailures counts the failures charged to no operation: a timed
	// round that ran fewer operations than the checking round.
	roundFailures int
}

func newHarness(memStats bool) *harness {
	return &harness{memStats: memStats, layers: newLayerAgg()}
}

// beginRound resets the per-round accumulators. Every round starts from
// the same heap state, with the freed memory returned to the operating
// system as in a fresh process.
func (h *harness) beginRound(checking, traced bool) {
	debug.FreeOSMemory()
	h.checking, h.traced = checking, traced
	h.r = &round{traced: traced, steps: h.stepBuf[:0]}
	h.pending = nil
	if !checking {
		h.pending = map[string]int{}
		for _, fp := range h.ref {
			h.pending[fp]++
		}
	}
}

// endRound summarises and returns the finished round.
func (h *harness) endRound() *round {
	r := h.r
	r.stepP50 = time.Duration(quantile(r.steps, 0.50))
	r.stepP99 = time.Duration(quantile(r.steps, 0.99))
	h.stepBuf, r.steps = r.steps, nil
	if missing := len(h.ref) - r.engines(); !h.checking && missing > 0 {
		h.fail("%d operation(s) of the checking round did not run in this round", missing)
		h.roundFailures++
	}
	return r
}

// fail records a failed output check.
func (h *harness) fail(format string, args ...any) {
	h.failures = append(h.failures, fmt.Sprintf(format, args...))
}

// checked records err, if any, as a failed check.
func (h *harness) checked(what string, err error) {
	if err != nil {
		h.fail("%s: %v", what, err)
	}
}

// failOps marks the round's operations first..last-1 as failed; a check of
// a figure fails every run the figure made.
func (h *harness) failOps(first, last int) {
	for i := first; i < last; i++ {
		h.r.failed[i] = true
	}
}

// runSpec is one simulated run: its config and its checks. check and
// onFlip run only in the checking round; after runs in every round.
type runSpec struct {
	name       string
	cfg        sim.Config
	checkEvery int64                   // run check every checkEvery cycles (0: never)
	check      func(*sim.Engine) error // between-cycle check
	onFlip     func(*sim.Engine) error // check at every routing-epoch flip
	after      func(*sim.Engine)       // output checks once the run has ended
}

// run builds s.cfg, steps it to its end, checks it and returns it. It is
// the benchmark's operation: it counts as failed when any of its checks
// fails. It is safe for concurrent callers.
func (h *harness) run(s runSpec) *sim.Engine {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.r
	failures := len(h.failures)

	u := h.read()
	t0 := time.Now()
	e, err := sim.New(s.cfg)
	newTime := time.Since(t0)
	if err != nil {
		panic(fmt.Sprintf("%s: sim.New: %v", s.name, err)) // the workloads' configs are valid
	}
	setup := h.read().sub(u)
	setup.mallocs, setup.allocBytes = 0, 0 // allocations count per stepped cycle
	r.mem = r.mem.add(setup)
	r.setup += newTime
	r.newTimes = append(r.newTimes, newTime)

	var ev eventCount
	e.SetListener(&ev)
	var fold func()
	if h.traced {
		fold = h.layers.attach(e)
	}
	checkEvery := int64(0)
	if h.checking {
		checkEvery = s.checkEvery
		if s.onFlip != nil {
			e.SetReconfigHook(func(epoch uint64) {
				h.checked(fmt.Sprintf("%s: at routing epoch %d", s.name, epoch), s.onFlip(e))
			})
		}
	}

	total := s.cfg.TotalCycles()
	u = h.read()
	for e.Now() < total {
		epoch := e.Epoch()
		t := time.Now()
		e.Step()
		d := time.Since(t)
		r.step += d
		r.steps = append(r.steps, uint32(min(d, math.MaxUint32)))
		if e.Epoch() != epoch {
			r.reconfig += d
			r.reconfigN++
		}
		if now := e.Now(); checkEvery > 0 && now%checkEvery == 0 {
			h.checked(fmt.Sprintf("%s: cycle %d", s.name, now), s.check(e))
		}
	}
	r.mem = r.mem.add(h.read().sub(u))
	e.FlushMetrics()
	e.Close()
	r.cycles += total
	if fold != nil {
		fold()
	}
	h.checked(s.name, checkEventCounts(ev, e.Generated(), e.Delivered()))
	if s.after != nil {
		s.after(e)
	}
	fp := fingerprint(e)
	if h.pending != nil {
		if h.pending[fp] > 0 {
			h.pending[fp]--
		} else {
			h.fail("%s: results differ from every run of the checking round: %s", s.name, fp)
		}
	}
	r.sim.recovered += e.Recovered()
	r.sim.generated += e.Generated()
	r.sim.epochs += int64(e.Epoch())
	r.sim.aborted += e.Aborted()
	r.sim.retried += e.Retried()
	r.sim.dropped += e.Dropped()
	r.fps = append(r.fps, fp)
	r.failed = append(r.failed, len(h.failures) > failures)
	return e
}

// fingerprint renders an engine's results and counters exactly; two runs of
// one config must produce the same string on every path and every round.
func fingerprint(e *sim.Engine) string {
	return fmt.Sprintf("%+v gen=%d del=%d rec=%d abort=%d retry=%d drop=%d epoch=%d now=%d",
		e.Collector().Result(), e.Generated(), e.Delivered(), e.Recovered(),
		e.Aborted(), e.Retried(), e.Dropped(), e.Epoch(), e.Now())
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; it sorts xs in place.
func quantile[T int64 | uint32 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(i)
	return float64(xs[i])*(1-frac) + float64(xs[i+1])*frac
}

// median returns the median of the values f picks from rs.
func median(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return quantile(xs, 0.5)
}
