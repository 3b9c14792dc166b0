package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sprinklers/internal/experiment"
	"sprinklers/internal/resultcache"
	"sprinklers/internal/service"
)

// system is one of the three ways a study reaches the engine: in the
// benchmark's own process, through one sprinklerd, or through a loopback
// sprinklerd cluster.
type system interface {
	// start brings the system up until a study can be submitted.
	start(ctx context.Context) error
	// study runs spec to rendered results (the CSV rendering).
	study(ctx context.Context, spec experiment.Spec) (string, error)
	// work reports the system's cumulative simulation work.
	work(ctx context.Context) (work, error)
	// peakRSSMB is the summed peak RSS of the processes that serve studies.
	peakRSSMB() (float64, error)
	stop()
}

// work is a system's cumulative simulation work.
type work struct {
	slots, replicas, dispatched int64
}

func renderCSV(rs []experiment.PointResult) (string, error) {
	var b strings.Builder
	err := experiment.RenderStudyCSV(&b, rs)
	return b.String(), err
}

// inproc runs studies with experiment.RunStudy in the benchmark process,
// against an on-disk result cache. With layers set, every replica and
// every cache operation is timed (the experiment layer's traced study).
type inproc struct {
	bin    string // this program, run with --open-cache to time the set-up
	dir    string
	store  *resultcache.Store
	ctr    experiment.Counters
	layers *layerTimes
}

// start times what an in-process user pays before a study can be
// submitted — a fresh process that links the engine (runtime and package
// initialisation, the registry's self-registration) opening the result
// cache — and then opens the cache here, where the studies run.
func (s *inproc) start(ctx context.Context) error {
	if out, err := exec.CommandContext(ctx, s.bin, "--open-cache", s.dir).CombinedOutput(); err != nil {
		return fmt.Errorf("in-process set-up: %v: %s", err, bytes.TrimSpace(out))
	}
	st, err := resultcache.Open(s.dir)
	s.store = st
	return err
}

func (s *inproc) study(ctx context.Context, spec experiment.Spec) (string, error) {
	cfg := experiment.StudyConfig{Cache: s.store, Counters: &s.ctr}
	if s.layers != nil {
		cfg.Cache = timedCache{s.store, s.layers}
		cfg.ReplicaRunner = s.layers.runner(&s.ctr)
	}
	rs, err := experiment.RunStudy(ctx, spec, cfg)
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	out, err := renderCSV(rs)
	if s.layers != nil {
		s.layers.add(&s.layers.render, time.Since(t0))
	}
	return out, err
}

func (s *inproc) work(context.Context) (work, error) {
	return work{slots: s.ctr.SlotsSimulated.Load(), replicas: s.ctr.ReplicasComputed.Load()}, nil
}

func (s *inproc) peakRSSMB() (float64, error) { return vmHWM(os.Getpid()) }

func (s *inproc) stop() {}

// layerTimes collects the experiment and resultcache layers' timings from
// a timing ReplicaRunner and a timing PointCache.
type layerTimes struct {
	mu                   sync.Mutex
	replicas, gets, puts []time.Duration
	render               []time.Duration
	hits, misses         int
}

func (l *layerTimes) add(to *[]time.Duration, d time.Duration) {
	l.mu.Lock()
	*to = append(*to, d)
	l.mu.Unlock()
}

func (l *layerTimes) runner(ctr *experiment.Counters) func(context.Context, experiment.Spec, experiment.PointKey, int) (experiment.Point, error) {
	return func(ctx context.Context, spec experiment.Spec, key experiment.PointKey, rep int) (experiment.Point, error) {
		t0 := time.Now()
		p, err := experiment.RunReplicaJob(ctx, spec, key, rep, 1, ctr, nil)
		l.add(&l.replicas, time.Since(t0))
		return p, err
	}
}

// timedCache is a PointCache that times every Get and Put.
type timedCache struct {
	store  *resultcache.Store
	layers *layerTimes
}

func (c timedCache) Get(key string) ([]byte, bool, error) {
	t0 := time.Now()
	b, ok, err := c.store.Get(key)
	d := time.Since(t0)
	c.layers.mu.Lock()
	c.layers.gets = append(c.layers.gets, d)
	if ok {
		c.layers.hits++
	} else {
		c.layers.misses++
	}
	c.layers.mu.Unlock()
	return b, ok, err
}

func (c timedCache) Put(key string, val []byte) error {
	t0 := time.Now()
	err := c.store.Put(key, val)
	c.layers.add(&c.layers.puts, time.Since(t0))
	return err
}

// fleet runs sprinklerd processes on loopback: one standalone daemon
// (workers == 0) or a coordinator with workers that -join it, each with
// one job slot. Studies go through the service's HTTP API.
type fleet struct {
	bin     string
	dir     string
	workers int
	procs   []*daemon // procs[0] serves studies
	client  service.Client
	calls   *callTimes // per-call timings, when set
}

// callTimes is the client-side time of each service call of a study.
type callTimes struct {
	submit, stream, results, render []time.Duration
	resultsBytes                    []float64
}

type daemon struct {
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has exited and been reaped
}

func (f *fleet) start(ctx context.Context) error {
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return err
	}
	coordArgs := []string{}
	if f.workers > 0 {
		coordArgs = append(coordArgs, "-coordinator")
	}
	coord, err := f.spawn(ctx, "node0", coordArgs...)
	if err != nil {
		return err
	}
	f.client = service.Client{BaseURL: coord.url, HTTPClient: &http.Client{}}
	for i := 1; i <= f.workers; i++ {
		if _, err := f.spawn(ctx, fmt.Sprintf("node%d", i), "-join", coord.url, "-job-slots", "1"); err != nil {
			return err
		}
	}
	for f.workers > 0 {
		m, err := scrape(ctx, coord.url)
		if err != nil {
			return err
		}
		if int(m["sprinklerd_workers_healthy"]) == f.workers {
			return nil
		}
		if err := pause(ctx); err != nil {
			return err
		}
	}
	return nil
}

// spawn starts one sprinklerd on a free loopback port and waits until it
// answers /healthz.
func (f *fleet) spawn(ctx context.Context, node string, extra ...string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(f.dir, node+".log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-listen", addr, "-cache", filepath.Join(f.dir, node), "-node", node,
		"-log-level", "warn", "-bench-dir", f.dir,
	}, extra...)
	cmd := exec.Command(f.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemons die with the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	f.procs = append(f.procs, d)
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status of a stopped daemon carries nothing
		close(d.done)
	}()
	for {
		select {
		case <-d.done:
			return nil, fmt.Errorf("sprinklerd %s exited during start-up (see %s)", node, logf.Name())
		default:
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/healthz", nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if err := pause(ctx); err != nil {
			return nil, err
		}
	}
}

func pause(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(time.Millisecond):
		return nil
	}
}

func (f *fleet) study(ctx context.Context, spec experiment.Spec) (string, error) {
	t0 := time.Now()
	st, err := f.client.Submit(ctx, spec)
	if err != nil {
		return "", err
	}
	t1 := time.Now()
	if st.State == service.StateRunning {
		if st.State, err = f.client.Stream(ctx, st.ID, 0, nil); err != nil {
			return "", err
		}
	}
	if st.State != service.StateDone {
		return "", fmt.Errorf("study %s ended %s", st.ID, st.State)
	}
	t2 := time.Now()
	body, err := f.get(ctx, "/api/v1/studies/"+st.ID+"/results")
	if err != nil {
		return "", err
	}
	t3 := time.Now()
	rendered, err := f.get(ctx, "/api/v1/studies/"+st.ID+"/render?format=csv")
	if err != nil {
		return "", err
	}
	t4 := time.Now()
	var res struct {
		Results []experiment.PointResult `json:"results"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return "", fmt.Errorf("decoding results: %w", err)
	}
	local, err := renderCSV(res.Results)
	if err != nil {
		return "", err
	}
	if local != string(rendered) {
		return "", errors.New("the daemon's rendering differs from a rendering of its own results")
	}
	if c := f.calls; c != nil {
		c.submit = append(c.submit, t1.Sub(t0))
		c.stream = append(c.stream, t2.Sub(t1))
		c.results = append(c.results, t3.Sub(t2))
		c.render = append(c.render, t4.Sub(t3))
		c.resultsBytes = append(c.resultsBytes, float64(len(body)))
	}
	return local, nil
}

func (f *fleet) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.client.BaseURL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.HTTPClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, err
}

// metricsAll scrapes every node's /metrics and sums the samples by name.
func (f *fleet) metricsAll(ctx context.Context) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, d := range f.procs {
		m, err := scrape(ctx, d.url)
		if err != nil {
			return nil, err
		}
		for k, v := range m {
			sum[k] += v
		}
	}
	return sum, nil
}

func (f *fleet) work(ctx context.Context) (work, error) {
	m, err := f.metricsAll(ctx)
	if err != nil {
		return work{}, err
	}
	return work{
		slots:      int64(m["sprinklerd_sim_slots_total"]),
		replicas:   int64(m["sprinklerd_replicas_computed_total"]),
		dispatched: int64(m["sprinklerd_jobs_dispatched_total"]),
	}, nil
}

func (f *fleet) peakRSSMB() (float64, error) {
	var total float64
	for _, d := range f.procs {
		mb, err := vmHWM(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

// stop terminates every daemon, workers first, and waits for each to exit.
func (f *fleet) stop() {
	for i := len(f.procs) - 1; i >= 0; i-- {
		d := f.procs[i]
		d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // a daemon that already exited is reaped all the same
		select {
		case <-d.done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill() //nolint:errcheck
			<-d.done
		}
		d.log.Close()
	}
	f.procs = nil
}

// scrape reads one daemon's /metrics into name -> value, keeping only
// unlabeled samples and the _sum/_count lines of histograms.
func scrape(ctx context.Context, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// vmHWM reads a process's peak resident set size in MB.
func vmHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
