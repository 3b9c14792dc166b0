package main

import (
	"context"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/queue"
	"sprinklers/internal/sim"
	"sprinklers/internal/stats"
	"sprinklers/internal/traffic"
)

// replayPoint is one simulation point the benchmark drives through its own
// slot loop, outside the study engine.
type replayPoint struct {
	alg     experiment.Algorithm
	traffic experiment.TrafficKind
	n       int
	load    float64
	seed    int64
	slots   int64 // every slot executed, warmup included
}

// engineTimes accumulates the replay loop's per-stage wall time and
// counts over every replayed point. The five stage times sum to the loop's
// wall time exactly: other is what lies between one slot's last stage and
// the next slot's first (loop control and the benchmark's own checks).
type engineTimes struct {
	slots, packets, delivered, backlog int64
	next, arrive, step, observe, other time.Duration
	// build is the construction of each point's matrix, switch and source.
	build time.Duration
}

func (e *engineTimes) loop() time.Duration {
	return e.next + e.arrive + e.step + e.observe + e.other
}

func (e *engineTimes) merge(o *engineTimes) {
	e.slots += o.slots
	e.packets += o.packets
	e.delivered += o.delivered
	e.backlog += o.backlog
	e.next += o.next
	e.arrive += o.arrive
	e.step += o.step
	e.observe += o.observe
	e.other += o.other
	e.build += o.build
}

// replay runs one point through the public engine surface — Source.Next
// into a buffer, Arrive, Step into a buffer, the Delay and Reorder
// observers — timing each stage, and checks the point's outputs:
// conservation, per-flow order (order-preserving architectures) and the
// offered load against its Bernoulli law. The switch and source are built
// the way a study's replica builds them, from the point's own seed.
func replay(ctx context.Context, pt replayPoint, et *engineTimes) error {
	built := time.Now()
	rng := rand.New(rand.NewSource(pt.seed))
	m, err := experiment.Pattern(pt.traffic, pt.n, pt.load, rng)
	if err != nil {
		return err
	}
	sw, err := experiment.NewSwitch(pt.alg, m, pt.seed)
	if err != nil {
		return err
	}
	src := traffic.NewBernoulli(m, rand.New(rand.NewSource(pt.seed+int64(pt.load*1e6))))
	et.build += time.Since(built)
	probs := make([]float64, pt.n)
	for i := range probs {
		probs[i] = m.RowSum(i)
	}
	var order *flowOrder
	if pt.alg.OrderPreserving() {
		order = newFlowOrder(pt.n)
	}
	delay := &stats.Delay{}
	reorder := stats.NewReorder(pt.n)
	arrivals := make([]sim.Packet, 0, pt.n)
	deliveries := make([]sim.Delivery, 0, pt.n)
	emit := func(p sim.Packet) { arrivals = append(arrivals, p) }
	deliver := func(d sim.Delivery) { deliveries = append(deliveries, d) }
	var emitted, delivered int64

	prev := time.Now()
	for t := sim.Slot(0); t < sim.Slot(pt.slots); t++ {
		if t%1024 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		arrivals = arrivals[:0]
		deliveries = deliveries[:0]
		t0 := time.Now()
		src.Next(t, emit)
		t1 := time.Now()
		for _, p := range arrivals {
			sw.Arrive(p)
		}
		t2 := time.Now()
		sw.Step(deliver)
		t3 := time.Now()
		for _, d := range deliveries {
			if !d.Packet.Fake {
				delay.Observe(d)
				reorder.Observe(d)
			}
		}
		t4 := time.Now()
		emitted += int64(len(arrivals))
		for _, d := range deliveries {
			if d.Packet.Fake {
				continue
			}
			delivered++
			if order != nil {
				order.observe(d.Packet)
			}
		}
		et.other += t0.Sub(prev)
		et.next += t1.Sub(t0)
		et.arrive += t2.Sub(t1)
		et.step += t3.Sub(t2)
		et.observe += t4.Sub(t3)
		prev = t4
	}
	et.other += time.Since(prev)
	et.slots += pt.slots
	et.packets += emitted
	et.delivered += delivered
	backlog := sw.Backlog()
	et.backlog += int64(backlog)

	where := fmt.Sprintf("%s/%s N=%d load=%g", pt.alg, pt.traffic, pt.n, pt.load)
	if order != nil && order.err != nil {
		return fmt.Errorf("%s: %w", where, order.err)
	}
	if err := checkConservation(emitted, delivered, backlog); err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	if err := checkOfferedLoad(emitted, pt.slots, probs); err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	if order != nil && reorder.Reordered() != 0 {
		return fmt.Errorf("%s: the Reorder observer counts %d reorders on an order-preserving architecture", where, reorder.Reordered())
	}
	return nil
}

// probeNew times the registry construction of the N=1024 switch the
// switch-* workloads run, and reports the live heap it holds.
func probeNew(seed int64) (newTime time.Duration, heapMB float64, err error) {
	const n = 1024
	m, err := experiment.Pattern(experiment.PermutationTraffic, n, 0.9, rand.New(rand.NewSource(seed)))
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	sw, err := experiment.NewSwitch(experiment.Sprinklers, m, seed)
	newTime = time.Since(t0)
	if err != nil {
		return 0, 0, err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(sw)
	return newTime, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (1 << 20), nil
}

// bankOps is the number of Push+Pop pairs probeBank times.
const bankOps = 1 << 20

// probeBank times one queue.Bank Push plus Pop over the N²·(log₂N+1)
// queues of the N=1024 center stage, on queues drawn with a fixed seed:
// all pushes first, then pops in push order, so every pop finds its queue
// non-empty.
func probeBank() time.Duration {
	const n = 1024
	queues := n * n * (bits.Len(uint(n)-1) + 1)
	b := queue.NewBank[sim.Packet](queues)
	qs := make([]int32, bankOps)
	r := rand.New(rand.NewSource(1))
	for i := range qs {
		qs[i] = int32(r.Intn(queues))
	}
	t0 := time.Now()
	for i, q := range qs {
		b.Push(int(q), sim.Packet{ID: uint64(i)})
	}
	for _, q := range qs {
		b.Pop(int(q))
	}
	return time.Since(t0) / bankOps
}
