package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"sprinklers/internal/service"
	"sprinklers/internal/trace"
)

// spanNames are the daemon-side trace spans whose self time the traced run
// reports, in the order a job's life passes through them.
var spanNames = []string{
	"study", "cache-prepass", "dispatch", "lease", "job", "cache-check",
	"peer-cache-check", "queue-wait", "simulate", "cas-store",
}

// wallParts are the benchmark's span names; their self times, with the
// root's ("other"), sum to the traced run's wall time.
var wallParts = []string{
	"experiment", "traffic", "core", "stats", "sim", "queue", "baseline",
	"setup", "study", "warm", "scrape", "other",
}

// expWarmReruns is how many warm reruns of the in-process reference study
// time the cache's reads when the workload's own studies run remotely.
const expWarmReruns = 20

// traced runs the workload once with the benchmark's spans around every
// call into a layer and reports the per-layer metrics.
func (r *runner) traced(ctx context.Context) error {
	tr := newTracer("other")
	res := r.res
	layers := &layerTimes{}

	// Experiment and resultcache layers: the in-process reference study
	// with a timing ReplicaRunner and a timing PointCache, when the
	// workload's studies run remotely; otherwise the traced round's own.
	var refLayers *layerTimes
	if r.w.fleet >= 0 {
		refLayers = layers
	}
	tr.begin("experiment")
	ref, want, err := r.reference(ctx, refLayers)
	if err == nil && refLayers != nil {
		spec := r.w.spec(r.seed)
		for i := 0; i < expWarmReruns && err == nil; i++ {
			var out string
			if out, err = ref.study(ctx, spec); err == nil {
				err = checkSame("warm in-process study", want, out)
			}
		}
	}
	tr.end()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	res.op("reference study", err)

	// Engine layers: the benchmark's own slot loop over the study's points.
	et := &engineTimes{}
	tr.begin("sim")
	err = r.replay(ctx, et, 1)
	tr.add("traffic", et.next)
	tr.add("core", et.build+et.arrive+et.step)
	tr.add("stats", et.observe)
	tr.end()
	if err != nil {
		return err
	}

	tr.begin("queue")
	bankOp := probeBank()
	tr.end()
	release()
	tr.begin("core")
	newTime, heapMB, err := probeNew(r.seed)
	tr.end()
	res.op("core.New probe", err)
	release()

	// The untraced baseline study, then the traced round on a fresh system.
	tr.begin("baseline")
	base := r.system(filepath.Join(r.dir, "baseline"), nil)
	rdA, err := r.runRound(ctx, base, want, 0, nil, nil)
	base.stop()
	tr.end()
	if err != nil {
		return err
	}
	release()

	sys := r.system(filepath.Join(r.dir, "traced"), layers)
	calls := &callTimes{}
	exp := ref
	if ip, ok := sys.(*inproc); ok {
		exp = ip
	}
	var fl *fleet
	if f, ok := sys.(*fleet); ok {
		fl = f
		fl.calls = calls
	}
	var spans []trace.Span
	var cl map[string]float64
	afterCold := func() error {
		if fl == nil {
			return nil
		}
		tr.begin("scrape")
		defer tr.end()
		resp, err := fl.client.Trace(ctx, service.StudyID(r.w.spec(r.seed)))
		if err != nil {
			return err
		}
		spans = resp.Spans
		cl, err = fl.metricsAll(ctx)
		return err
	}
	rdB, err := r.runRound(ctx, sys, want, tracedWarm, tr, afterCold)
	sys.stop()
	if err != nil {
		return err
	}
	release()

	self, total := tr.finish()
	// Engine layers, per simulated slot of the replay.
	slots := float64(et.slots)
	perSlot := func(d time.Duration) float64 { return float64(d) / slots }
	res.set("traffic.next_ns_per_slot", perSlot(et.next), "ns")
	res.set("traffic.packets", float64(et.packets), "count")
	res.set("queue.bank_op_ns", float64(bankOp), "ns")
	res.set("core.new_ms", ms(newTime), "ms")
	res.set("core.heap_mb", heapMB, "MB")
	res.set("core.arrive_ns_per_slot", perSlot(et.arrive), "ns")
	res.set("core.step_ns_per_slot", perSlot(et.step), "ns")
	res.set("core.delivered_pkts", float64(et.delivered), "count")
	res.set("core.backlog_pkts", float64(et.backlog), "count")
	res.set("stats.observe_ns_per_slot", perSlot(et.observe), "ns")
	res.set("sim.slot_us", perSlot(et.loop())/1e3, "us")
	res.set("sim.other_ns_per_slot", perSlot(et.other), "ns")

	// Experiment and resultcache layers.
	res.set("experiment.replica_ms_p50", median(durationsMs(layers.replicas)), "ms")
	res.set("experiment.replicas", float64(len(layers.replicas)), "count")
	var simulated int64
	var cacheBytes int64
	if exp != nil {
		simulated = exp.ctr.SlotsSimulated.Load()
		if cacheBytes, err = exp.store.Size(); err != nil {
			res.op("cache size", err)
		}
	}
	res.set("experiment.slots_simulated", float64(simulated), "count")
	res.set("experiment.render_ms", median(durationsMs(layers.render)), "ms")
	res.set("resultcache.get_us", median(durationsMs(layers.gets))*1e3, "us")
	res.set("resultcache.put_us", median(durationsMs(layers.puts))*1e3, "us")
	res.set("resultcache.hit_ratio", float64(layers.hits)/float64(layers.hits+layers.misses), "ratio")
	res.set("resultcache.bytes", float64(cacheBytes), "bytes")

	// Service layer, per call at the client, over the warm resubmissions.
	skipCold := func(ds []time.Duration) []float64 {
		if len(ds) > 1 {
			ds = ds[1:]
		}
		return durationsMs(ds)
	}
	res.set("service.submit_ms", median(skipCold(calls.submit)), "ms")
	res.set("service.stream_ms", median(skipCold(calls.stream)), "ms")
	res.set("service.results_ms", median(skipCold(calls.results)), "ms")
	res.set("service.render_ms", median(skipCold(calls.render)), "ms")
	res.set("service.results_bytes", median(calls.resultsBytes), "bytes")
	var remoteWarm []time.Duration
	if fl != nil {
		remoteWarm = rdB.warm
	}
	res.set("service.warm_study_ms_p95", quantile(durationsMs(remoteWarm), 0.95), "ms")

	// Cluster layer, over the traced cold study, summed across nodes.
	dispatch := cl["sprinklerd_dispatch_latency_seconds_sum"] * 1e3
	exec := cl["sprinklerd_job_exec_seconds_sum"] * 1e3
	res.set("cluster.dispatch_ms", dispatch, "ms")
	res.set("cluster.job_exec_ms", exec, "ms")
	res.set("cluster.queue_wait_ms", cl["sprinklerd_job_queue_wait_seconds_sum"]*1e3, "ms")
	res.set("cluster.dispatch_overhead_ratio", dispatch/exec, "ratio")
	res.set("cluster.jobs_dispatched", cl["sprinklerd_jobs_dispatched_total"], "count")
	res.set("cluster.jobs_retried", cl["sprinklerd_jobs_retried_total"], "count")
	res.set("cluster.jobs_stolen", cl["sprinklerd_jobs_stolen_total"], "count")
	res.set("cluster.peer_fills", cl["sprinklerd_peer_cache_fill_total"], "count")
	res.set("cluster.local_fallbacks", cl["sprinklerd_jobs_local_fallback_total"], "count")
	spanSelf := selfTimes(spans)
	for _, name := range spanNames {
		res.set("cluster.self_ms."+name, ms(spanSelf[name]), "ms")
	}

	// The traced run's wall time, split by the benchmark's spans.
	res.set("trace.overhead_s", (rdB.cold - rdA.cold).Seconds(), "s")
	res.set("wall.total_s", total.Seconds(), "s")
	for _, name := range wallParts {
		res.set("wall."+name+"_s", self[name].Seconds(), "s")
	}
	for name := range self {
		if !contains(wallParts, name) {
			return fmt.Errorf("span %q is missing from the wall split", name)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}

// selfTimes sums, per span name, each span's duration minus the union of
// its children's intervals (children may run concurrently). Instant events
// are skipped.
func selfTimes(spans []trace.Span) map[string]time.Duration {
	children := map[string][][2]int64{}
	for _, s := range spans {
		if !s.Event && s.Parent != "" {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.Start + s.Dur})
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		if s.Event {
			continue
		}
		lo, hi := s.Start, s.Start+s.Dur
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, cur := int64(0), lo
		for _, c := range iv {
			a, b := max(c[0], cur), min(c[1], hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		out[s.Name] += time.Duration(s.Dur - covered)
	}
	return out
}
