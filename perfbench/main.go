// Command perfbench is the repository's end-to-end benchmark. It times a
// study from submission to rendered results in three modes — in-process,
// through one sprinklerd, and through a loopback sprinklerd cluster — and,
// in a separate traced run, splits that time by layer. Every run also
// checks the program's outputs independently. See README.md.
//
// Usage (from the repository root; run.sh builds and execs this program):
//
//	bash perfbench/run.sh --workload switch-n1024 --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"syscall"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/resultcache"
)

// Study shapes. The switch-* horizon runs past the stripe-fill transient
// of permutation traffic at N=1024 (stripes of size N fill in about N/ρ ≈
// 1.1k slots); the fig6 grid is the paper's Fig. 6 at a seconds scale.
const (
	switchN      = 1024
	switchLoad   = 0.9
	switchSlots  = 2500
	switchWarmup = 500
	fig6N        = 32
	fig6Slots    = 5000
	fig6Replicas = 2
)

// Run shape: every run makes at least minRounds rounds, each a fresh
// system (set-up, one cold study, warmPerRound warm resubmissions), and
// starts another while the measured time stays within --seconds.
const (
	minRounds    = 4
	warmPerRound = 120
	tracedWarm   = 200
	// setupProbes extra systems are started and stopped before each
	// round's own, so set-up time is the median of many samples.
	setupProbes = 4
)

type workload struct {
	name string
	spec func(seed int64) experiment.Spec
	// fleet is -1 for in-process studies, 0 for one sprinklerd, k for a
	// coordinator with k workers.
	fleet int
	// reference runs an in-process study of the same spec first, whose
	// render every study of the run must reproduce byte for byte.
	reference bool
}

var workloads = []workload{
	{name: "switch-n1024", spec: switchSpec, fleet: -1},
	{name: "fig6-daemon", spec: fig6Spec, fleet: 0, reference: true},
	{name: "fig6-cluster", spec: fig6Spec, fleet: 2, reference: true},
}

func switchSpec(seed int64) experiment.Spec {
	return experiment.Spec{
		Name:       "switch-n1024",
		Kind:       experiment.SimStudy,
		Algorithms: experiment.Algs(experiment.Sprinklers),
		Traffic:    experiment.Traffics(experiment.PermutationTraffic),
		Loads:      []float64{switchLoad},
		Sizes:      []int{switchN},
		Replicas:   1,
		Slots:      switchSlots,
		Warmup:     switchWarmup,
		Seed:       seed,
	}
}

func fig6Spec(seed int64) experiment.Spec {
	return experiment.Spec{
		Name:       "fig6",
		Kind:       experiment.SimStudy,
		Algorithms: experiment.Algs(experiment.Fig6Algorithms...),
		Traffic:    experiment.Traffics(experiment.UniformTraffic),
		Loads:      experiment.PaperLoads,
		Sizes:      []int{fig6N},
		Replicas:   fig6Replicas,
		Slots:      fig6Slots,
		Seed:       seed,
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// op counts one attempted operation and, when err is non-nil, one failed
// operation, reported on standard error.
func (r *result) op(what string, err error) bool {
	r.Attempted++
	if err != nil {
		r.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}
	return err == nil
}

func main() {
	name := flag.String("workload", "", "workload to run: switch-n1024, fig6-daemon or fig6-cluster")
	seed := flag.Int64("seed", 1, "workload seed: the studies' base seed is seed+1")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer mode")
	openCache := flag.String("open-cache", "", "open the result cache in this directory and exit (the in-process set-up, timed from a fresh process)")
	flag.Parse()

	if *openCache != "" {
		if _, err := resultcache.Open(*openCache); err != nil {
			fatal(err)
		}
		return
	}

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		flag.Usage()
		os.Exit(2)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	r := &runner{
		w:      w,
		seed:   *seed + 1,
		budget: time.Duration(*seconds) * time.Second,
		self:   exe,
		daemon: filepath.Join(filepath.Dir(exe), "sprinklerd"),
		dir:    filepath.Join(".bench_build", "perfbench", fmt.Sprintf("run-%d", os.Getpid())),
		res:    &result{Metrics: map[string]metric{}},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	defer os.RemoveAll(r.dir)
	if *traced == 1 {
		err = r.traced(ctx)
	} else {
		err = r.untraced(ctx)
	}
	if err != nil {
		os.RemoveAll(r.dir)
		fatal(err)
	}
	r.res.Correct = r.res.Failed == 0
	out, err := json.Marshal(r.res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runner holds one run's state.
type runner struct {
	w      *workload
	seed   int64
	budget time.Duration
	self   string // this program, for the in-process set-up
	daemon string
	dir    string
	res    *result
}

func (r *runner) system(dir string, layers *layerTimes) system {
	if r.w.fleet < 0 {
		return &inproc{bin: r.self, dir: dir, layers: layers}
	}
	return &fleet{bin: r.daemon, dir: dir, workers: r.w.fleet}
}

// release drops a finished phase's memory before the next one, so each
// phase's peak RSS is its own.
func release() {
	runtime.GC()
	debug.FreeOSMemory()
}

// reference runs the in-process reference study whose render every study
// of the run must reproduce byte for byte; "" when the workload has none.
func (r *runner) reference(ctx context.Context, layers *layerTimes) (*inproc, string, error) {
	if !r.w.reference {
		return nil, "", nil
	}
	ref := &inproc{bin: r.self, dir: filepath.Join(r.dir, "reference"), layers: layers}
	if err := ref.start(ctx); err != nil {
		return nil, "", err
	}
	out, err := ref.study(ctx, r.w.spec(r.seed))
	release()
	return ref, out, err
}

// replayPoints lists one replica of every point of the workload's study,
// for the benchmark's own slot loop.
func (r *runner) replayPoints() []replayPoint {
	spec := r.w.spec(r.seed).WithDefaults()
	var pts []replayPoint
	for i, k := range spec.Points() {
		pts = append(pts, replayPoint{
			alg: k.Algorithm, traffic: k.Traffic,
			n: k.N, load: k.Load, seed: r.seed*1_000_003 + int64(i),
			slots: int64(spec.Slots + spec.Warmup),
		})
	}
	return pts
}

// replay drives every replay point through the benchmark's own slot loop
// on workers goroutines and checks each point's outputs, and that the
// workload as a whole delivers packets. The traced run uses one worker, so
// that the stage times sum to the loop's wall time.
func (r *runner) replay(ctx context.Context, et *engineTimes, workers int) error {
	pts := r.replayPoints()
	errs := make([]error, len(pts))
	parts := make([]engineTimes, workers)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = replay(ctx, pts[i], &parts[w])
			}
		}()
	}
	for i := range pts {
		next <- i
	}
	close(next)
	wg.Wait()
	release()
	if ctx.Err() != nil {
		return ctx.Err()
	}
	for i := range parts {
		et.merge(&parts[i])
	}
	for i, err := range errs {
		r.res.op("replay "+string(pts[i].alg), err)
	}
	if et.delivered == 0 {
		r.res.op("replay", fmt.Errorf("no point delivered a packet in %d slots", et.slots))
	}
	return nil
}

// round is one fresh system's measurements.
type round struct {
	setup, cold time.Duration
	warm        []time.Duration
	rssMB       float64
	render      string
}

// runRound starts a fresh system, runs one cold study and nWarm warm
// resubmissions under fresh names, and checks every output; the caller
// stops the system. want is the render every study must reproduce (""
// accepts the first cold render as the reference). afterCold, when set,
// runs right after the cold study.
func (r *runner) runRound(ctx context.Context, sys system, want string, nWarm int, tr *tracer, afterCold func() error) (round, error) {
	var rd round
	spec := r.w.spec(r.seed)
	points := int64(spec.WithDefaults().NumPoints() * spec.WithDefaults().Replicas)

	tr.begin("setup")
	t0 := time.Now()
	err := sys.start(ctx)
	rd.setup = time.Since(t0)
	tr.end()
	if !r.res.op("set-up", err) {
		return rd, ctx.Err()
	}

	w0, err := sys.work(ctx)
	if !r.res.op("work before the cold study", err) {
		return rd, ctx.Err()
	}
	tr.begin("study")
	t0 = time.Now()
	out, err := sys.study(ctx, spec)
	rd.cold = time.Since(t0)
	tr.end()
	if err == nil && want != "" {
		err = checkSame("cold study", want, out)
	}
	rd.render = out
	if want == "" {
		want = out
	}
	w1, werr := sys.work(ctx)
	if err == nil {
		err = werr
	}
	if err == nil && w1.replicas-w0.replicas != points {
		err = fmt.Errorf("the cold study computed %d replicas, want points×replicas = %d", w1.replicas-w0.replicas, points)
	}
	if !r.res.op("cold study", err) {
		return rd, ctx.Err()
	}
	if afterCold != nil {
		r.res.op("after the cold study", afterCold())
	}
	release()

	tr.begin("warm")
	for i := 0; i < nWarm; i++ {
		spec.Name = fmt.Sprintf("%s-warm-%d", r.w.name, i)
		t0 = time.Now()
		out, err := sys.study(ctx, spec)
		d := time.Since(t0)
		if err == nil {
			err = checkSame("warm study", want, out)
		}
		if r.res.op("warm study", err) {
			rd.warm = append(rd.warm, d)
		} else if ctx.Err() != nil {
			tr.end()
			return rd, ctx.Err()
		}
	}
	tr.end()
	w2, err := sys.work(ctx)
	if err == nil && w2 != w1 {
		err = fmt.Errorf("warm resubmissions did work: %d slots, %d replicas, %d dispatches",
			w2.slots-w1.slots, w2.replicas-w1.replicas, w2.dispatched-w1.dispatched)
	}
	r.res.op("warm work check", err)
	rd.rssMB, err = sys.peakRSSMB()
	r.res.op("peak RSS", err)
	return rd, ctx.Err()
}

// untraced measures the end-to-end metrics.
func (r *runner) untraced(ctx context.Context) error {
	_, want, err := r.reference(ctx, nil)
	if ctx.Err() != nil {
		return ctx.Err()
	}
	r.res.op("reference study", err)
	if err := r.replay(ctx, &engineTimes{}, runtime.GOMAXPROCS(0)); err != nil {
		return err
	}

	var setups, colds, warms, rss []float64
	t0 := time.Now()
	for i := 0; ; i++ {
		if i >= minRounds && time.Since(t0)+time.Since(t0)/time.Duration(i) > r.budget {
			break
		}
		for k := 0; k < setupProbes; k++ {
			probe := r.system(filepath.Join(r.dir, fmt.Sprintf("setup-%d-%d", i, k)), nil)
			t := time.Now()
			err := probe.start(ctx)
			d := time.Since(t)
			probe.stop()
			if r.res.op("set-up", err) {
				setups = append(setups, d.Seconds())
			} else if ctx.Err() != nil {
				return ctx.Err()
			}
		}
		sys := r.system(filepath.Join(r.dir, fmt.Sprintf("round-%d", i)), nil)
		rd, err := r.runRound(ctx, sys, want, warmPerRound, nil, nil)
		sys.stop()
		if err != nil {
			return err
		}
		release()
		if want == "" {
			want = rd.render
		}
		if rd.cold == 0 {
			continue
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s round %d: set-up %.2f ms, cold study %.3f s, warm p50 %.3f ms, peak RSS %.1f MB\n",
			r.w.name, i, ms(rd.setup), rd.cold.Seconds(), median(durationsMs(rd.warm)), rd.rssMB)
		setups = append(setups, rd.setup.Seconds())
		colds = append(colds, rd.cold.Seconds())
		warms = append(warms, durationsMs(rd.warm)...)
		rss = append(rss, rd.rssMB)
	}
	if len(colds) == 0 {
		return errors.New("no round completed")
	}
	r.res.set("setup_s", median(setups), "s")
	r.res.set("study_s", median(colds), "s")
	r.res.set("warm_study_ms_p50", quantile(warms, 0.50), "ms")
	r.res.set("peak_rss_mb", median(rss), "MB")
	return nil
}
