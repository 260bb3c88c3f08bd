package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracenet/internal/cli"
	"tracenet/internal/core"
	"tracenet/internal/daemon"
	"tracenet/internal/groundtruth"
	"tracenet/internal/netsim"
	"tracenet/internal/obs"
	"tracenet/internal/probe"
)

const (
	// serviceClients is the closed loop's client count; each client is its
	// own tenant and waits for one report before submitting the next spec.
	serviceClients = 2
	// pollEvery is how often a client polls its campaign's status.
	pollEvery = 10 * time.Millisecond
	// replayedSpecs is how many specs the traced run replays in process.
	replayedSpecs = 8
	// artifactWait is how long a client waits, after done, for the daemon to
	// log that a campaign's artifacts are written.
	artifactWait = 10 * time.Second
)

// serviceDir holds the daemon spools of a service run.
var serviceDir = filepath.Join(buildDir, "service")

// serviceSpecs draws the campaign specs of a run from the workload seed:
// internet2 campaigns with their own substrate seed and evaluation on, where
// every fourth spec also installs a fault plan and arms backoff and the
// breaker.
func serviceSpecs(seed int64, n int) []daemon.Spec {
	rng := rand.New(rand.NewSource(seed))
	specs := make([]daemon.Spec, n)
	for i := range specs {
		specs[i] = daemon.Spec{Topology: "internet2", Seed: rng.Int63n(1<<30) + 1, Eval: true}
		if i%4 == 3 {
			specs[i].Chaos = rng.Int63n(1<<30) + 1
			specs[i].Backoff, specs[i].Breaker = true, true
		}
	}
	return specs
}

// service is tracenetd running in this process behind loopback HTTP.
type service struct {
	d     *daemon.Daemon
	srv   *obs.Server
	base  string
	spool string
	fin   *finishWatch
}

// startService starts a daemon over a fresh spool, the way cmd/tracenetd
// does: an info-level log, and API and readiness mounted before the
// listener opens. The log goes to a finishWatch instead of stderr.
func startService(spool string) (*service, error) {
	if err := os.RemoveAll(spool); err != nil {
		return nil, err
	}
	d, err := daemon.New(daemon.Config{Spool: spool})
	if err != nil {
		return nil, err
	}
	fin := newFinishWatch()
	lg := obs.NewLogger(d.Clock(), fin, obs.LevelInfo, obs.DefaultLogRingSize)
	d.SetLogger(lg)
	srv := obs.NewServer(d.Telemetry(), lg)
	d.Attach(srv)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return &service{d: d, srv: srv, base: "http://" + addr.String(), spool: spool, fin: fin}, nil
}

// finishWatch reads the daemon's log stream. It signals each campaign's
// "campaign finished" record, which the daemon writes at the end of finish,
// after the report, the eval and state.json are in the spool, and it keeps
// every "spool write failed" record.
type finishWatch struct {
	mu       sync.Mutex
	pending  []byte
	finished map[string]chan struct{}
	spoolErr []string
}

func newFinishWatch() *finishWatch {
	return &finishWatch{finished: map[string]chan struct{}{}}
}

// logRecord is the part of a daemon log record the watch reads.
type logRecord struct {
	Msg      string `json:"msg"`
	Campaign string `json:"campaign"`
	Err      string `json:"err"`
}

// Write takes the logger's output, which may split a record over several
// writes, and handles each complete line.
func (w *finishWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.pending = append(w.pending, p...)
	for {
		i := bytes.IndexByte(w.pending, '\n')
		if i < 0 {
			return len(p), nil
		}
		var rec logRecord
		if json.Unmarshal(w.pending[:i], &rec) == nil {
			switch rec.Msg {
			case "campaign finished":
				if ch := w.chanLocked(rec.Campaign); !isClosed(ch) {
					close(ch)
				}
			case "spool write failed":
				w.spoolErr = append(w.spoolErr, rec.Campaign+": "+rec.Err)
			}
		}
		w.pending = w.pending[i+1:]
	}
}

// chanLocked returns the channel closed when campaign id finishes.
func (w *finishWatch) chanLocked(id string) chan struct{} {
	ch, ok := w.finished[id]
	if !ok {
		ch = make(chan struct{})
		w.finished[id] = ch
	}
	return ch
}

func isClosed(ch chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// landed returns a channel that is closed once campaign id's artifacts are
// written.
func (w *finishWatch) landed(id string) <-chan struct{} {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.chanLocked(id)
}

// spoolErrors returns the spool write failures logged so far.
func (w *finishWatch) spoolErrors() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.spoolErr...)
}

func (s *service) stop() error {
	if err := s.d.Drain(context.Background()); err != nil {
		return err
	}
	return s.srv.Shutdown(context.Background())
}

// classify names why one HTTP step of a campaign failed, or returns "" when
// it succeeded. A report or eval that is missing once the daemon has logged
// it written is a failure like any other; the client never retries it.
func classify(step string, code int, err error) string {
	want := http.StatusOK
	if step == "submit" {
		want = http.StatusAccepted
	}
	switch {
	case err != nil:
		return step + ": transport error"
	case code == want:
		return ""
	case code == http.StatusTooManyRequests:
		return step + ": rejected (429)"
	case code == http.StatusServiceUnavailable:
		return step + ": unavailable (503)"
	case code == http.StatusNotFound && (step == "report" || step == "eval"):
		return step + ": missing after done (404)"
	}
	return fmt.Sprintf("%s: unexpected status %d", step, code)
}

// statusDoc is the part of a campaign status document the client reads.
type statusDoc struct {
	Status   string `json:"status"`
	Progress *struct {
		Targets         int64  `json:"targets"`
		WireProbes      uint64 `json:"wire_probes"`
		DistinctSubnets int64  `json:"distinct_subnets"`
	} `json:"progress"`
}

// evalDoc is the part of a groundtruth evaluation the benchmark scores.
type evalDoc struct {
	TruthSubnets     int `json:"truth_subnets"`
	CollectedSubnets int `json:"collected_subnets"`
	ExactCollected   int `json:"exact_collected"`
	ExactTruth       int `json:"exact_truth"`
}

// outcome is one campaign as a client saw it. Times are on the run clock;
// zero means the step was never reached.
type outcome struct {
	submit, accepted, running, done, landed, reported int64
	submitNs, reportNs                                int64 // HTTP round trips
	polls                                             int
	lateArtifacts                                     bool // done was published before the artifacts were written
	status                                            string
	failure                                           string // the report was not fetched
	evalFailure                                       string // the report was, the eval not
	problem                                           string // a failed output check
	targets                                           int64
	wireProbes                                        uint64
	subnets                                           int64
	eval                                              evalDoc
	spans                                             []span // traced runs: HTTP calls, parent -1 = the campaign
}

// client is one tenant of the closed loop.
type client struct {
	tenant   string
	base     string
	fin      *finishWatch
	http     *http.Client
	clock    func() int64
	traced   bool
	wantRows int
}

// call makes one HTTP request and reads the whole body.
func (c *client) call(o *outcome, name, method, path string, body []byte) (int, []byte, error) {
	start := c.clock()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if c.traced {
		o.spans = append(o.spans, span{name: name, parent: -1, start: start, end: c.clock()})
	}
	return resp.StatusCode, data, err
}

// campaign submits one spec, polls it to a final state, and fetches its
// report and evaluation.
func (c *client) campaign(sp daemon.Spec) outcome {
	sp.Tenant = c.tenant
	o := outcome{submit: c.clock()}
	body, err := json.Marshal(sp)
	if err != nil {
		o.failure = "submit: " + err.Error()
		return o
	}
	code, data, err := c.call(&o, "http.submit", http.MethodPost, "/api/v1/campaigns", body)
	o.accepted = c.clock()
	o.submitNs = o.accepted - o.submit
	if o.failure = classify("submit", code, err); o.failure != "" {
		return o
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		o.failure = "submit: unreadable response"
		return o
	}
	path := "/api/v1/campaigns/" + acc.ID
	for {
		code, data, err := c.call(&o, "http.status", http.MethodGet, path, nil)
		o.polls++
		if o.failure = classify("status", code, err); o.failure != "" {
			return o
		}
		var doc statusDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			o.failure = "status: unreadable document"
			return o
		}
		if doc.Status == "running" && o.running == 0 {
			o.running = c.clock()
		}
		if doc.Status != "queued" && doc.Status != "running" {
			o.done, o.status = c.clock(), doc.Status
			if doc.Progress != nil {
				o.targets = doc.Progress.Targets
				o.wireProbes = doc.Progress.WireProbes
				o.subnets = doc.Progress.DistinctSubnets
			}
			break
		}
		time.Sleep(pollEvery)
	}
	if o.status != "done" {
		o.failure = "campaign ended " + o.status
		return o
	}
	// The daemon publishes done before it writes the artifacts. The client
	// fetches them once the daemon has logged that they are written, and
	// notes whether it had to wait.
	landed := c.fin.landed(acc.ID)
	select {
	case <-landed:
	default:
		o.lateArtifacts = true
		select {
		case <-landed:
		case <-time.After(artifactWait):
			o.failure = "report: artifacts not written after done"
			return o
		}
	}
	o.landed = c.clock()
	start := c.clock()
	code, data, err = c.call(&o, "http.report", http.MethodGet, path+"/report", nil)
	if o.failure = classify("report", code, err); o.failure != "" {
		return o
	}
	o.reported = c.clock()
	o.reportNs = o.reported - start
	if rows := reportRows(data); rows != c.wantRows {
		o.problem = fmt.Sprintf("service: report of %s has %d rows for %d targets", acc.ID, rows, c.wantRows)
	}
	code, data, err = c.call(&o, "http.eval", http.MethodGet, path+"/eval", nil)
	if o.evalFailure = classify("eval", code, err); o.evalFailure != "" {
		return o
	}
	if err := json.Unmarshal(data, &o.eval); err != nil || o.eval.TruthSubnets == 0 {
		o.problem = fmt.Sprintf("service: eval of %s does not parse", acc.ID)
	}
	return o
}

// reportRows counts the per-target rows of a daemon report: the indented
// lines between the header and the first blank line.
func reportRows(report []byte) int {
	rows := 0
	for _, line := range strings.Split(string(report), "\n")[1:] {
		if line == "" {
			break
		}
		if strings.HasPrefix(line, "  ") {
			rows++
		}
	}
	return rows
}

// loop is the closed loop of a service run. It runs in epochs of
// epochCampaigns campaigns, each on a freshly started daemon: at this
// commit the daemon keeps every finished campaign's network reachable
// (several MiB each), so one daemon serving a whole run would grow without
// bound. Restarts happen between epochs, outside the timed region.
type loop struct {
	clients []*client
	specs   []daemon.Spec
	next    atomic.Int64
	svc     *service
	spools  int
	// spoolErrs are the spool write failures of the daemons stopped so far.
	spoolErrs []string
}

// checkSpool fails the run if any daemon of the loop logged a failed spool
// write.
func (l *loop) checkSpool(res *result) {
	errs := append([]string(nil), l.spoolErrs...)
	if l.svc != nil {
		errs = append(errs, l.svc.fin.spoolErrors()...)
	}
	res.check(len(errs) == 0, "service: %d spool writes failed: %v", len(errs), errs)
}

// epochCampaigns is how many campaigns one daemon serves.
const epochCampaigns = 32

// startsPerRestart is how many daemons a restart starts, keeping the last.
// A start takes well under a millisecond, so one sample per epoch would let
// a momentary stall on the host move the median; several per epoch, spread
// over the run, do not.
const startsPerRestart = 5

// restart stops the current daemon and deletes its spool, then starts
// startsPerRestart fresh daemons in turn, each after a forced GC, and keeps
// the last. It returns the time of each start but the first in seconds: the
// first start after an epoch runs two to four times slower while the
// runtime returns that epoch's freed heap, which is the benchmark's cost,
// not the daemon's.
func (l *loop) restart() ([]float64, error) {
	var took []float64
	for i := 0; i < startsPerRestart; i++ {
		if err := l.stop(); err != nil {
			return nil, err
		}
		runtime.GC()
		t := time.Now()
		svc, err := startService(filepath.Join(serviceDir, fmt.Sprintf("spool-%d", l.spools)))
		if err != nil {
			return nil, err
		}
		if i > 0 {
			took = append(took, time.Since(t).Seconds())
		}
		l.spools++
		l.svc = svc
	}
	for _, c := range l.clients {
		c.base, c.fin = l.svc.base, l.svc.fin
	}
	return took, nil
}

func (l *loop) stop() error {
	if l.svc == nil {
		return nil
	}
	if err := l.svc.stop(); err != nil {
		return err
	}
	l.spoolErrs = append(l.spoolErrs, l.svc.fin.spoolErrors()...)
	err := os.RemoveAll(l.svc.spool)
	l.svc = nil
	return err
}

// epoch runs the clients against the current daemon until epochCampaigns
// campaigns have been submitted, each client taking the next spec of the
// run's sequence, and returns the outcomes in spec order with the epoch's
// wall time.
func (l *loop) epoch() ([]outcome, time.Duration) {
	first := l.next.Load()
	last := first + epochCampaigns
	outcomes := make([]outcome, epochCampaigns)
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range l.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := l.next.Add(1) - 1
				if i >= last {
					return
				}
				outcomes[i-first] = c.campaign(l.specs[int(i)%len(l.specs)])
			}
		}(c)
	}
	wg.Wait()
	l.next.Store(last)
	return outcomes, time.Since(start)
}

// epochRun is what a series of epochs measured. Rates and costs have one
// sample per epoch, so that a stall on the host moves one sample and not
// the run's median.
type epochRun struct {
	outcomes     []outcome
	starts       []float64 // daemon start times, in seconds
	retained     []float64 // MiB in use after a forced GC at each epoch's end, its daemon still live
	campaignRate []float64 // campaigns whose report was fetched, per second
	targetRate   []float64 // destinations of done campaigns, per second
	cpuPerTarget []float64 // process CPU µs per destination of a done campaign
}

// epochs runs epochs, each on a freshly started daemon, until the deadline.
func (l *loop) epochs(deadline time.Time) (*epochRun, error) {
	r := &epochRun{}
	for len(r.outcomes) == 0 || time.Now().Before(deadline) {
		starts, err := l.restart()
		if err != nil {
			return nil, err
		}
		r.starts = append(r.starts, starts...)
		cpu0 := cpuTime()
		outcomes, took := l.epoch()
		cpu := cpuTime() - cpu0
		r.outcomes = append(r.outcomes, outcomes...)
		var reported int
		var targets int64
		for _, o := range outcomes {
			if o.failure == "" {
				reported++
			}
			if o.status == "done" {
				targets += o.targets
			}
		}
		r.campaignRate = append(r.campaignRate, float64(reported)/took.Seconds())
		r.targetRate = append(r.targetRate, float64(targets)/took.Seconds())
		r.cpuPerTarget = append(r.cpuPerTarget, ratio(float64(cpu.Microseconds()), float64(targets)))
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		r.retained = append(r.retained, float64(ms.HeapAlloc)/(1<<20))
	}
	return r, nil
}

// loopStats summarises a closed loop's outcomes.
type loopStats struct {
	// reported campaigns had their report fetched; succeeded ones their
	// eval too. Latencies and slo count reports only.
	attempted, done, reported, succeeded, slo int
	doneTargets                               int64
	wireProbes                                uint64
	subnets                                   int64
	latencies                                 []float64
	acc                                       accuracy
	failures                                  map[string]int
}

func summarise(res *result, outcomes []outcome) loopStats {
	s := loopStats{failures: map[string]int{}}
	for i := range outcomes {
		o := &outcomes[i]
		s.attempted++
		if o.problem != "" {
			res.check(false, "%s", o.problem)
		}
		if o.status == "done" {
			s.done++
			s.doneTargets += o.targets
			s.wireProbes += o.wireProbes
			s.subnets += o.subnets
		}
		if o.failure != "" {
			s.failures[o.failure]++
			continue
		}
		s.reported++
		lat := float64(o.reported-o.submit) / 1e6
		s.latencies = append(s.latencies, lat)
		if lat <= float64(sloLimit.Milliseconds()) {
			s.slo++
		}
		if o.evalFailure != "" {
			s.failures[o.evalFailure]++
			continue
		}
		s.succeeded++
		s.acc.exactCollected += o.eval.ExactCollected
		s.acc.collected += o.eval.CollectedSubnets
		s.acc.exactTruth += o.eval.ExactTruth
		s.acc.truth += o.eval.TruthSubnets
	}
	return s
}

func printFailures(s loopStats) {
	var names []string
	for n := range s.failures {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("failed: %d x %s\n", s.failures[n], n)
	}
}

// runService is the service workload: tracenetd in process behind loopback
// HTTP, driven by a closed loop of two clients acting as two tenants.
func runService(o opts) (*result, error) {
	res := &result{correct: true}
	if err := os.RemoveAll(serviceDir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(serviceDir)
	sc, err := cli.Load("internet2", 1)
	if err != nil {
		return nil, err
	}

	epoch := time.Now()
	clock := func() int64 { return int64(time.Since(epoch)) }
	tr := &http.Transport{MaxIdleConnsPerHost: serviceClients}
	defer tr.CloseIdleConnections()
	l := &loop{specs: serviceSpecs(o.seed, 4096)}
	defer l.stop()
	for i := 0; i < serviceClients; i++ {
		l.clients = append(l.clients, &client{
			tenant:   fmt.Sprintf("tenant-%c", 'a'+i),
			http:     &http.Client{Transport: tr, Timeout: 30 * time.Second},
			clock:    clock,
			wantRows: len(sc.Destinations),
		})
	}
	if _, err := l.restart(); err != nil {
		return nil, err
	}
	// Warm-up: one epoch that is not measured.
	l.epoch()

	if o.trace {
		return runServiceTraced(o, res, l)
	}

	alloc0 := heapAllocs()
	r, err := l.epochs(o.deadline())
	if err != nil {
		return nil, err
	}
	alloc := heapAllocs() - alloc0
	l.checkSpool(res)
	s := summarise(res, r.outcomes)
	res.attempted, res.failed = s.attempted, s.attempted-s.succeeded
	printFailures(s)
	fmt.Printf("campaigns %d attempted, %d done, %d reports and %d evals fetched; p%d supported\n",
		s.attempted, s.done, s.reported, s.succeeded, highestPercentile(len(s.latencies)))
	fmt.Printf("setup samples %.6f\n", r.starts)
	res.add("setup_s", "s", median(r.starts))
	res.add("targets_per_s", "1/s", median(r.targetRate))
	res.add("campaigns_per_s", "1/s", median(r.campaignRate))
	res.add("cpu_us_per_target", "us", median(r.cpuPerTarget))
	res.add("alloc_kb_per_target", "KiB", ratio(float64(alloc)/1024, float64(s.doneTargets)))
	res.add("retained_mb", "MiB", median(r.retained))
	res.add("probes_per_subnet", "probes", ratio(float64(s.wireProbes), float64(s.subnets)))
	s.acc.report(res)
	res.add("submit_to_report_p50_ms", "ms", percentile(s.latencies, 50))
	res.add("submit_to_report_p95_ms", "ms", percentile(s.latencies, 95))
	res.add("slo_attainment", "share", ratio(float64(s.slo), float64(s.attempted)))
	return res, nil
}

// runServiceTraced is the service's traced run: untraced epochs for a third
// of the time, then traced ones for another third whose client-side spans
// give the daemon layer's metrics, then an in-process replay of the first
// specs that gives the lower layers' metrics.
func runServiceTraced(o opts, res *result, l *loop) (*result, error) {
	third := time.Duration(o.seconds / 3 * float64(time.Second))
	plain, err := l.epochs(time.Now().Add(third))
	if err != nil {
		return nil, err
	}
	ps := summarise(res, plain.outcomes)

	tl := newSpanLog()
	for _, c := range l.clients {
		c.clock, c.traced = tl.now, true
	}
	traced, err := l.epochs(time.Now().Add(third))
	if err != nil {
		return nil, err
	}
	// The last epoch's daemon is still running: its spool holds exactly
	// epochCampaigns campaigns.
	spoolBytes, err := dirSize(l.svc.spool)
	if err != nil {
		return nil, err
	}
	l.checkSpool(res)
	ts := summarise(res, traced.outcomes)
	res.attempted = ps.attempted + ts.attempted
	res.failed = res.attempted - ps.succeeded - ts.succeeded
	printFailures(ts)

	var submitMs, queueMs, runMs, fetchMs []float64
	var polls, missing int
	for i := range traced.outcomes {
		t := &traced.outcomes[i]
		cid := tl.add("campaign", -1, t.submit, max(t.reported, t.done, t.accepted))
		for _, sp := range t.spans {
			tl.add(sp.name, cid, sp.start, sp.end)
		}
		submitMs = append(submitMs, float64(t.submitNs)/1e6)
		polls += t.polls
		if t.running != 0 {
			tl.add("daemon.queued", cid, t.accepted, t.running)
			queueMs = append(queueMs, float64(t.running-t.submit)/1e6)
			if t.done != 0 {
				tl.add("daemon.running", cid, t.running, t.done)
				runMs = append(runMs, float64(t.done-t.running)/1e6)
			}
		}
		if t.landed != 0 {
			tl.add("daemon.artifacts", cid, t.done, t.landed)
		}
		if t.reported != 0 {
			fetchMs = append(fetchMs, float64(t.reportNs)/1e6)
		}
		if t.lateArtifacts {
			missing++
		}
	}
	res.add("daemon.submit_ms_p50", "ms", median(submitMs))
	res.add("daemon.queue_wait_ms_p50", "ms", median(queueMs))
	res.add("daemon.run_ms_p50", "ms", median(runMs))
	res.add("daemon.report_fetch_ms_p50", "ms", median(fetchMs))
	res.add("daemon.polls_per_campaign", "count", ratio(float64(polls), float64(ts.attempted)))
	res.add("daemon.report_missing_after_done", "share", ratio(float64(missing), float64(ts.done)))
	res.add("daemon.spool_kb_per_campaign", "KiB", float64(spoolBytes)/1024/epochCampaigns)
	res.add("trace.overhead_ratio", "x", ratio(median(plain.campaignRate), median(traced.campaignRate)))

	runs, newMs, err := replaySpecs(l.specs[:replayedSpecs])
	if err != nil {
		return nil, err
	}
	if _, err := tracedRound(res, tl, runs); err != nil {
		return nil, err
	}
	res.add("netsim.new_ms", "ms", median(newMs))
	return res, writeSpans(tl, "service", o.seed)
}

// replaySpecs resolves specs into in-process campaigns the way the daemon
// resolves a submission (daemon.resolve): cli.Load, a seeded netsim.New,
// the spec's fault plan, and its backoff and breaker settings. It returns
// each netsim.New duration in ms.
func replaySpecs(specs []daemon.Spec) ([]*campaignRun, []float64, error) {
	var runs []*campaignRun
	var newMs []float64
	for _, sp := range specs {
		sc, err := cli.Load(sp.Topology, sp.Seed)
		if err != nil {
			return nil, nil, err
		}
		t := time.Now()
		net := netsim.New(sc.Topo, netsim.Config{Seed: sp.Seed})
		newMs = append(newMs, float64(time.Since(t).Nanoseconds())/1e6)
		if sp.Chaos != 0 {
			if err := net.InstallFaults(netsim.RandomFaultPlan(sc.Topo, sp.Chaos)); err != nil {
				return nil, nil, err
			}
		}
		popts := probe.Options{Cache: true}
		if sp.Backoff {
			popts.Retry = &probe.RetryPolicy{MaxRetries: 2, BackoffBase: 4, BackoffMax: 64, Jitter: 0.25}
		}
		if sp.Breaker {
			popts.Breaker = &probe.BreakerConfig{}
		}
		runs = append(runs, &campaignRun{
			net:      net,
			vantage:  sc.Vantage,
			targets:  sc.Destinations,
			truth:    groundtruth.FromTopology(sc.Topo, groundtruth.Options{}),
			parallel: 1,
			probe:    popts,
			session:  core.Config{MaxTTL: 30},
		})
	}
	return runs, newMs, nil
}

// dirSize is the total size of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
