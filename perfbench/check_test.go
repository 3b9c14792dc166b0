package main

import (
	"testing"

	"sprinklers/internal/sim"
)

func deliverAll(f *flowOrder, in, out int32, seqs ...uint64) {
	for _, s := range seqs {
		f.observe(sim.Packet{In: in, Out: out, Seq: s})
	}
}

func TestFlowOrderAcceptsInOrderFlows(t *testing.T) {
	f := newFlowOrder(4)
	deliverAll(f, 0, 1, 0, 1, 2)
	deliverAll(f, 3, 1, 0)
	deliverAll(f, 0, 1, 3)
	if f.err != nil {
		t.Fatalf("in-order flows flagged: %v", f.err)
	}
}

func TestFlowOrderFlagsReorderedStream(t *testing.T) {
	f := newFlowOrder(4)
	deliverAll(f, 2, 3, 0, 2, 1)
	if f.err == nil {
		t.Fatal("a reordered stream was not flagged")
	}
}

func TestFlowOrderFlagsDuplicate(t *testing.T) {
	f := newFlowOrder(4)
	deliverAll(f, 1, 0, 0, 1, 1)
	if f.err == nil {
		t.Fatal("a duplicated packet was not flagged")
	}
}

func TestDroppedPacketIsFlagged(t *testing.T) {
	// Seq 1 of flow 0->0 never arrives: the order checker sees the gap,
	// and conservation sees one packet neither delivered nor buffered.
	f := newFlowOrder(2)
	deliverAll(f, 0, 0, 0, 2, 3)
	if f.err == nil {
		t.Fatal("the gap left by a dropped packet was not flagged")
	}
	if err := checkConservation(4, 3, 0); err == nil {
		t.Fatal("conservation missed a dropped packet")
	}
	if err := checkConservation(4, 3, 1); err != nil {
		t.Fatalf("a buffered packet was flagged: %v", err)
	}
}

func TestOfferedLoadFlagsOffLawCount(t *testing.T) {
	probs := []float64{0.9, 0.9, 0.9, 0.9}
	const slots = 10_000
	// Mean 36000, σ = sqrt(4·10000·0.9·0.1) = 60.
	if err := checkOfferedLoad(36_000+4*60, slots, probs); err != nil {
		t.Fatalf("a count 4σ from the mean was flagged: %v", err)
	}
	if err := checkOfferedLoad(36_000-6*60, slots, probs); err == nil {
		t.Fatal("a count 6σ below the mean was not flagged")
	}
	if err := checkOfferedLoad(36_000+6*60, slots, probs); err == nil {
		t.Fatal("a count 6σ above the mean was not flagged")
	}
}

func TestCheckSame(t *testing.T) {
	if err := checkSame("render", "a,b\n1,2\n", "a,b\n1,2\n"); err != nil {
		t.Fatal(err)
	}
	if err := checkSame("render", "a,b\n1,2\n", "a,b\n1,3\n"); err == nil {
		t.Fatal("differing renders were not flagged")
	}
}
