package main

import (
	"fmt"
	"math"

	"wormnet/internal/fault"
	"wormnet/internal/topology"
)

// Output checks. Each compares a simulated result against a value computed
// here from the network's geometry or the benchmark's own inputs, or
// against a property the method must have, never against a stored copy of
// earlier output.

// checkBisection fails when accepted uniform traffic exceeds the bisection
// bound of a k-ary n-cube torus: half of all uniform traffic crosses a cut
// of 4k^(n-1) unidirectional channels, so no node can sustain more than
// 8/k flits per cycle.
func checkBisection(accepted float64, k int) error {
	if bound := 8 / float64(k); accepted > bound {
		return fmt.Errorf("accepted traffic %.4f flits/node/cycle exceeds the bisection bound 8/k = %.4f", accepted, bound)
	}
	return nil
}

// meanMinimalHops returns the mean minimal hop count from a node to every
// other node of a k-ary n-cube torus (uniform destinations exclude the
// source). Each of the n dimensions contributes the ring distance
// min(d, k-d) of its offset d, and every offset occurs k^(n-1) times.
func meanMinimalHops(k, n int) float64 {
	ring := 0
	for d := 0; d < k; d++ {
		ring += min(d, k-d)
	}
	nodes := math.Pow(float64(k), float64(n))
	return float64(n) * nodes / float64(k) * float64(ring) / (nodes - 1)
}

// checkZeroLoad fails when the mean network latency is below the zero-load
// latency: a message's header needs at least one cycle per minimal hop and
// its msgLen flits leave the source one per cycle.
func checkZeroLoad(netLatency float64, k, n, msgLen int) error {
	if floor := meanMinimalHops(k, n) + float64(msgLen); netLatency < floor {
		return fmt.Errorf("mean network latency %.3f cycles is below the zero-load latency %.3f (mean minimal hops + %d flits)", netLatency, floor, msgLen)
	}
	return nil
}

// checkEventCounts fails when the listener's count of generation or
// delivery events differs from the engine's own totals.
func checkEventCounts(ev eventCount, generated, delivered int64) error {
	if ev.generated != generated || ev.delivered != delivered {
		return fmt.Errorf("listener saw %d generated / %d delivered messages, engine reports %d / %d",
			ev.generated, ev.delivered, generated, delivered)
	}
	return nil
}

// stateChanges counts the events of a fault schedule that change the state
// of a link or router (failing a live component or repairing a dead one),
// applying them in the order the engine does.
func stateChanges(events []fault.Event) int {
	type link struct {
		node topology.NodeID
		port topology.Port
	}
	linkDown := map[link]bool{}
	rtrDown := map[topology.NodeID]bool{}
	n := 0
	for _, ev := range events {
		switch ev.Kind {
		case fault.LinkDown, fault.LinkUp:
			l, down := link{ev.Node, ev.Port}, ev.Kind == fault.LinkDown
			if linkDown[l] != down {
				linkDown[l] = down
				n++
			}
		case fault.RouterDown, fault.RouterUp:
			down := ev.Kind == fault.RouterDown
			if rtrDown[ev.Node] != down {
				rtrDown[ev.Node] = down
				n++
			}
		}
	}
	return n
}

// checkEpochs fails when the engine's routing epoch is not the number of
// state-changing events in the schedule it ran.
func checkEpochs(epoch uint64, events []fault.Event) error {
	if want := stateChanges(events); epoch != uint64(want) {
		return fmt.Errorf("routing epoch %d, but the fault schedule has %d state-changing events", epoch, want)
	}
	return nil
}

// checkRuleRow fails when a Figure 2 row is inconsistent: (a)∨(b) holds
// whenever (a) or (b) does, so its percentage is at least the larger of the
// two, and no percentage exceeds 100.
func checkRuleRow(a, b, either float64) error {
	if either < max(a, b) || either > 100 {
		return fmt.Errorf("rule percentages a=%.2f b=%.2f a-or-b=%.2f: a-or-b must lie in [max(a,b), 100]", a, b, either)
	}
	return nil
}

// checkDeviationSpread fails when a Figure 4 row's per-node deviations from
// the mean do not straddle zero: the worst node sends no more than the mean
// and the best no less.
func checkDeviationSpread(worst, best float64) error {
	if worst > 0 || best < 0 {
		return fmt.Errorf("per-node deviations worst=%.2f%% best=%.2f%% do not straddle 0", worst, best)
	}
	return nil
}

// offeredTolerance is how many standard deviations of the Poisson message
// count a below-saturation point may stray from its offered load. The count
// alone would justify 4; messages in flight at the window's two edges add
// a little more spread.
const offeredTolerance = 5

// checkOffered fails when a below-saturation point does not accept its
// offered load: with msgs = offered*nodes*window/msgLen messages expected
// in the window, accepted traffic must lie within offeredTolerance/sqrt(msgs)
// of offered, relatively.
func checkOffered(accepted, offered float64, nodes int, window int64, msgLen int) error {
	msgs := offered * float64(nodes) * float64(window) / float64(msgLen)
	tol := offered * offeredTolerance / math.Sqrt(msgs)
	if math.Abs(accepted-offered) > tol {
		return fmt.Errorf("accepted %.4f flits/node/cycle at offered %.4f is outside the Poisson tolerance ±%.4f (%.0f messages expected)",
			accepted, offered, tol, msgs)
	}
	return nil
}
