package main

import (
	"fmt"
	"math"

	"sprinklers/internal/sim"
)

// The checkers below judge the program's outputs from the benchmark's own
// counts, never from the program's statistics. Each returns nil when the
// output is correct and an error naming the first violation otherwise.

// flowOrder checks per-flow delivery order for an order-preserving
// architecture: flow (in, out) must deliver Seq 0, 1, 2, ... exactly, so
// a reordered, duplicated or skipped packet is flagged at the delivery
// where it shows.
type flowOrder struct {
	n    int
	next []uint64
	err  error
}

func newFlowOrder(n int) *flowOrder {
	return &flowOrder{n: n, next: make([]uint64, n*n)}
}

func (f *flowOrder) observe(p sim.Packet) {
	if f.err != nil {
		return
	}
	k := int(p.In)*f.n + int(p.Out)
	want := f.next[k]
	switch {
	case p.Seq == want:
		f.next[k]++
	case p.Seq < want:
		f.err = fmt.Errorf("flow %d->%d: seq %d delivered after seq %d (reordered or duplicated)", p.In, p.Out, p.Seq, want-1)
	default:
		f.err = fmt.Errorf("flow %d->%d: seq %d delivered while seq %d is missing", p.In, p.Out, p.Seq, want)
	}
}

// checkConservation checks that every packet the source emitted was
// either delivered or is still buffered in the switch.
func checkConservation(emitted, delivered int64, backlog int) error {
	if emitted != delivered+int64(backlog) {
		return fmt.Errorf("conservation: emitted %d != delivered %d + backlog %d", emitted, delivered, backlog)
	}
	return nil
}

// checkOfferedLoad checks an emitted packet count against its law: over
// slots slots, input i emits a packet with probability probs[i] each slot,
// independently, so the total is a sum of binomials with mean
// slots*Σp and variance slots*Σp(1-p). A count more than 5σ from the mean
// is flagged.
func checkOfferedLoad(emitted int64, slots int64, probs []float64) error {
	var mean, variance float64
	for _, p := range probs {
		mean += float64(slots) * p
		variance += float64(slots) * p * (1 - p)
	}
	sigma := math.Sqrt(variance)
	if d := math.Abs(float64(emitted) - mean); d > 5*sigma {
		return fmt.Errorf("offered load: %d packets emitted, expected %.1f ± 5σ (σ=%.1f)", emitted, mean, sigma)
	}
	return nil
}

// checkSame checks that got is byte-identical to want.
func checkSame(what, want, got string) error {
	if want != got {
		return fmt.Errorf("%s: render differs from the reference (%d vs %d bytes)", what, len(got), len(want))
	}
	return nil
}
