package main

import (
	"strings"
	"testing"

	"wormnet/internal/fault"
	"wormnet/internal/sim"
	"wormnet/internal/topology"
)

// Every output check must reject a deliberately wrong input and accept a
// right one.

func TestCheckBisection(t *testing.T) {
	for _, c := range []struct {
		accepted float64
		k        int
		ok       bool
	}{
		{0.99, 8, true},
		{1.0, 8, true},
		{1.01, 8, false}, // above 8/k on the paper's 8-ary network
		{0.66, 12, true},
		{0.70, 12, false},
		{2.5, 4, false},
	} {
		if err := checkBisection(c.accepted, c.k); (err == nil) != c.ok {
			t.Errorf("checkBisection(%v, %d) = %v, want ok=%v", c.accepted, c.k, err, c.ok)
		}
	}
}

// TestMeanMinimalHops compares the closed form with a walk over every
// destination's coordinates.
func TestMeanMinimalHops(t *testing.T) {
	for _, c := range []struct{ k, n int }{{4, 2}, {8, 3}, {5, 2}, {12, 3}} {
		topo := topology.New(c.k, c.n)
		sum := 0
		for d := 1; d < topo.Nodes(); d++ {
			for dim, x := 0, d; dim < c.n; dim, x = dim+1, x/c.k {
				off := x % c.k
				sum += min(off, c.k-off)
			}
		}
		want := float64(sum) / float64(topo.Nodes()-1)
		if got := meanMinimalHops(c.k, c.n); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("meanMinimalHops(%d, %d) = %v, want %v", c.k, c.n, got, want)
		}
	}
}

func TestCheckZeroLoad(t *testing.T) {
	floor := meanMinimalHops(8, 3) + 16 // 22.02 cycles
	if err := checkZeroLoad(floor+0.5, 8, 3, 16); err != nil {
		t.Errorf("latency above the floor rejected: %v", err)
	}
	if err := checkZeroLoad(floor-0.5, 8, 3, 16); err == nil {
		t.Error("latency below the zero-load floor accepted")
	}
}

func TestCheckEventCounts(t *testing.T) {
	if err := checkEventCounts(eventCount{generated: 10, delivered: 7}, 10, 7); err != nil {
		t.Errorf("matching counts rejected: %v", err)
	}
	if err := checkEventCounts(eventCount{generated: 10, delivered: 6}, 10, 7); err == nil {
		t.Error("a delivery missing from the listener's count accepted")
	}
	if err := checkEventCounts(eventCount{generated: 11, delivered: 7}, 10, 7); err == nil {
		t.Error("an extra generation in the listener's count accepted")
	}
}

// TestListenerCountsEngine runs a small engine with the benchmark's listener
// attached and checks that the counts agree.
func TestListenerCountsEngine(t *testing.T) {
	cfg := sim.QuickConfig()
	cfg.Rate = 0.5
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 200, 600, 200
	e, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ev eventCount
	e.SetListener(&ev)
	e.Run()
	if e.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
	if err := checkEventCounts(ev, e.Generated(), e.Delivered()); err != nil {
		t.Error(err)
	}
}

func TestCheckEpochs(t *testing.T) {
	topo := topology.New(flapK, 3)
	sched := flapSchedule(topo, 7)
	links := (topo.Nodes()*topo.NumPorts() + 50) / 100
	want := 2 * flapDowns * links
	if got := stateChanges(sched.Events()); got != want {
		t.Fatalf("stateChanges = %d, want %d (%d links, %d flaps)", got, want, links, flapDowns)
	}
	if err := checkEpochs(uint64(want), sched.Events()); err != nil {
		t.Errorf("exact epoch count rejected: %v", err)
	}
	for _, off := range []int{-1, 1} {
		if err := checkEpochs(uint64(want+off), sched.Events()); err == nil {
			t.Errorf("epoch count off by %+d accepted", off)
		}
	}
}

// TestStateChangesSkipsRedundant checks that failing a failed component or
// repairing a live one is not counted, for links and routers alike.
func TestStateChangesSkipsRedundant(t *testing.T) {
	s := (&fault.Schedule{}).
		FailLink(10, 3, 1).
		FailLink(11, 3, 1).    // already down
		RestoreLink(12, 3, 0). // never failed
		RestoreLink(13, 3, 1).
		FailRouter(14, 5).
		FailRouter(15, 5). // already down
		RestoreRouter(16, 5)
	if got := stateChanges(s.Events()); got != 4 {
		t.Errorf("stateChanges = %d, want 4", got)
	}
}

func TestFlapScheduleDeterministic(t *testing.T) {
	topo := topology.New(flapK, 3)
	a, b, c := flapSchedule(topo, 3), flapSchedule(topo, 3), flapSchedule(topo, 4)
	if len(a.Events()) != len(b.Events()) {
		t.Fatal("same seed, different schedule lengths")
	}
	same := true
	for i := range a.Events() {
		if a.Events()[i] != b.Events()[i] {
			t.Fatalf("same seed, event %d differs: %v vs %v", i, a.Events()[i], b.Events()[i])
		}
		same = same && a.Events()[i] == c.Events()[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
	if err := a.Validate(topo); err != nil {
		t.Error(err)
	}
}

func TestCheckRuleRow(t *testing.T) {
	for _, c := range []struct {
		a, b, either float64
		ok           bool
	}{
		{80, 60, 90, true},
		{80, 60, 80, true},
		{100, 100, 100, true},
		{80, 60, 79.9, false}, // (a)∨(b) below rule (a)
		{60, 80, 70, false},   // (a)∨(b) below rule (b)
		{80, 60, 100.1, false},
	} {
		if err := checkRuleRow(c.a, c.b, c.either); (err == nil) != c.ok {
			t.Errorf("checkRuleRow(%v, %v, %v) = %v, want ok=%v", c.a, c.b, c.either, err, c.ok)
		}
	}
}

func TestCheckDeviationSpread(t *testing.T) {
	if err := checkDeviationSpread(-12, 9); err != nil {
		t.Errorf("straddling deviations rejected: %v", err)
	}
	if err := checkDeviationSpread(0, 0); err != nil {
		t.Errorf("all-equal deviations rejected: %v", err)
	}
	if err := checkDeviationSpread(0.5, 9); err == nil {
		t.Error("positive worst deviation accepted")
	}
	if err := checkDeviationSpread(-12, -0.5); err == nil {
		t.Error("negative best deviation accepted")
	}
}

func TestCheckOffered(t *testing.T) {
	// 0.2 flits/node/cycle, 1728 nodes, 1000 cycles, 16 flits: 21600
	// messages, so the tolerance is 0.2*5/147 = ±0.0068.
	if err := checkOffered(0.2050, 0.2, 1728, 1000, 16); err != nil {
		t.Errorf("point within tolerance rejected: %v", err)
	}
	if err := checkOffered(0.19, 0.2, 1728, 1000, 16); err == nil || !strings.Contains(err.Error(), "tolerance") {
		t.Errorf("point 5%% below its offered load accepted: %v", err)
	}
	if err := checkOffered(0.21, 0.2, 1728, 1000, 16); err == nil {
		t.Error("point 5% above its offered load accepted")
	}
}

// TestQuartiles pins the quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5}, // extrapolates, as Python does
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestRunCountsFailedOperations feeds a failing check through the harness:
// the operation it belongs to counts as failed, and no other does. A timed
// round whose run differs from the checking round's fails that run, and a
// timed round with fewer runs than the checking round fails the round.
func TestRunCountsFailedOperations(t *testing.T) {
	cfg := sim.QuickConfig()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.DrainCycles = 100, 200, 0
	h := newHarness(false)

	h.beginRound(true, false)
	h.run(runSpec{name: "pass", cfg: cfg})
	h.run(runSpec{name: "fail", cfg: cfg, after: func(e *sim.Engine) {
		h.checked("fail", checkBisection(9, e.Config().K)) // above 8/k
	}})
	r := h.endRound()
	if r.engines() != 2 || r.failedOps() != 1 || !r.failed[1] {
		t.Fatalf("checking round: %d runs, failed %v; want 2 runs, the second failed", r.engines(), r.failed)
	}

	h.ref = r.fps
	h.beginRound(false, false)
	h.run(runSpec{name: "same", cfg: cfg})
	other := cfg
	other.Seed++
	h.run(runSpec{name: "other seed", cfg: other})
	r = h.endRound()
	if r.failedOps() != 1 || !r.failed[1] || h.roundFailures != 0 {
		t.Fatalf("timed round: failed %v, round failures %d; want the second run failed only", r.failed, h.roundFailures)
	}

	h.beginRound(false, false)
	h.run(runSpec{name: "same", cfg: cfg})
	r = h.endRound()
	if r.failedOps() != 0 || h.roundFailures != 1 {
		t.Fatalf("short round: failed %v, round failures %d; want no failed run and 1 round failure", r.failed, h.roundFailures)
	}
}
