package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tracenet/internal/collect"
	"tracenet/internal/core"
	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
)

// workers is every in-process campaign's worker count: the benchmark is
// sized for two cores, and workers beyond the core count only add scheduler
// noise.
const workers = 2

// sloLimit is the latency limit slo_attainment counts against, per target on
// the in-process workloads and per campaign on the service.
const sloLimit = 250 * time.Millisecond

// campaignRun is one campaign of a round: where to probe from, what to
// probe, and the ground truth to score the result against.
type campaignRun struct {
	net      *netsim.Network
	vantage  string
	targets  []ipv4.Addr
	truth    *groundtruth.Truth
	parallel int
	probe    probe.Options
	session  core.Config
	// tel is the campaign's telemetry (nil when off) and traceBytes counts
	// what its span tracer wrote.
	tel        *telemetry.Telemetry
	traceBytes *countingWriter
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n atomic.Uint64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n.Add(uint64(len(p)))
	return len(p), nil
}

// count is the bytes written so far; a nil writer (telemetry off) has none.
func (w *countingWriter) count() uint64 {
	if w == nil {
		return 0
	}
	return w.n.Load()
}

// campaignResult is what one campaign yields. Times are on the run clock.
type campaignResult struct {
	rep    *collect.Report
	report []byte
	score  *groundtruth.Score
	// start..runEnd is collect.Run; runEnd..end renders the report.
	start, runEnd, end int64
	lastDone           int64
	cpu                time.Duration
	allocBytes         uint64
	traceBytes         uint64
	// latencies are per-target times from Dial to OnTargetDone, in ms.
	latencies []float64
	// links are the finished targets' links, kept on traced runs only.
	links   []*targetLink
	orphans int
}

// runCampaign runs one campaign through collect.Run and renders its report.
// It forces a GC first, so garbage from earlier campaigns is not collected
// on this campaign's time.
func runCampaign(c *campaignRun, clock func() int64, traced bool) (*campaignResult, error) {
	k := newLinker(clock, traced)
	out := &campaignResult{}
	var mu sync.Mutex
	cfg := collect.Config{
		Targets:   c.targets,
		Parallel:  c.parallel,
		Probe:     c.probe,
		Session:   c.session,
		Telemetry: c.tel,
		Dial: func(opts probe.Options) (*probe.Prober, error) {
			port, err := c.net.PortFor(c.vantage)
			if err != nil {
				return nil, err
			}
			return k.dial(port, opts), nil
		},
		OnTargetDone: func(r collect.TargetResult) {
			now := clock()
			l := k.done(r.Dst)
			mu.Lock()
			defer mu.Unlock()
			out.lastDone = now
			if l == nil {
				return
			}
			l.doneAt = now
			out.latencies = append(out.latencies, float64(now-l.dialAt)/1e6)
			if traced {
				out.links = append(out.links, l)
			}
		},
	}
	runtime.GC()
	traceBytes := c.traceBytes.count()
	cpu0, alloc0 := cpuTime(), heapAllocs()
	out.start = clock()
	rep, err := collect.Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	out.runEnd = clock()
	var buf bytes.Buffer
	if _, err := rep.WriteTo(&buf); err != nil {
		return nil, err
	}
	out.end = clock()
	out.cpu = cpuTime() - cpu0
	out.allocBytes = heapAllocs() - alloc0
	out.traceBytes = c.traceBytes.count() - traceBytes
	out.rep, out.report = rep, buf.Bytes()
	out.orphans = k.orphans
	out.score = c.truth.Score(groundtruth.FromCoreSubnets(rep.Subnets()))
	return out, nil
}

// runRound runs every campaign of a round in order.
func runRound(runs []*campaignRun, clock func() int64, traced bool) ([]*campaignResult, error) {
	var out []*campaignResult
	for _, c := range runs {
		r, err := runCampaign(c, clock, traced)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// inProcess describes a workload whose rounds run collect campaigns in this
// process.
type inProcess struct {
	name string
	// build makes the round's campaigns from the seed and returns each
	// netsim.New duration in ms.
	build func(seed int64) ([]*campaignRun, []float64, error)
	// check verifies one round's outputs.
	check func(res *result, round []*campaignResult)
}

// run measures the workload: set-up, a discarded warm-up round, then timed
// rounds until the deadline, each followed by a set-up whose time joins the
// setup_s samples and whose result is dropped. A traced run goes to
// runTraced.
func (w inProcess) run(o opts) (*result, error) {
	res := &result{correct: true}
	var setup, newMs []float64
	build := func() ([]*campaignRun, error) {
		runtime.GC()
		t := time.Now()
		runs, nm, err := w.build(o.seed)
		setup = append(setup, time.Since(t).Seconds())
		newMs = append(newMs, nm...)
		return runs, err
	}
	runs, err := build()
	if err != nil {
		return nil, err
	}
	epoch := time.Now()
	clock := func() int64 { return int64(time.Since(epoch)) }
	warm, err := runRound(runs, clock, false)
	if err != nil {
		return nil, err
	}
	if o.trace {
		return w.runTraced(o, res, runs, newMs)
	}
	// Retained heap: the network and a round's reports are live, the timed
	// loop's own accumulators are not yet.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(warm)

	var rates, cpuPerTarget, allocPerTarget, campaignRates, lat []float64
	var probes, subnets uint64
	var slo int
	var acc accuracy
	var orphans int
	deadline := o.deadline()
	rounds := 0
	for ; rounds < 3 || time.Now().Before(deadline); rounds++ {
		round, err := runRound(runs, clock, false)
		if err != nil {
			return nil, err
		}
		w.check(res, round)
		// One more untimed build per round spreads the set-up samples over
		// the run, so a short burst of load on the host cannot move them all.
		if _, err := build(); err != nil {
			return nil, err
		}
		// Rates are taken per campaign: isp-observed's three campaigns per
		// round give three times the samples its few long rounds would.
		for _, c := range round {
			n := len(c.rep.Targets)
			wall := float64(c.end-c.start) / 1e9
			rates = append(rates, float64(n)/wall)
			campaignRates = append(campaignRates, 1/wall)
			cpuPerTarget = append(cpuPerTarget, float64(c.cpu.Microseconds())/float64(n))
			allocPerTarget = append(allocPerTarget, float64(c.allocBytes)/1024/float64(n))
			probes += c.rep.Stats.WireProbes
			subnets += uint64(len(c.rep.Subnets()))
			acc.add(c.score)
			lat = append(lat, c.latencies...)
			orphans += c.orphans
			res.attempted += n
			res.failed += n - c.rep.Stats.Done
			for _, l := range c.latencies {
				if l <= float64(sloLimit.Milliseconds()) {
					slo++
				}
			}
		}
	}

	fmt.Printf("setup samples %.4f\n", setup)
	// A target without a linked Dial has no latency and counts as an SLO miss.
	fmt.Printf("timed rounds %d, %d targets per round, p%d supported by %d target latencies, %d unlinked\n",
		rounds, res.attempted/rounds, highestPercentile(len(lat)), len(lat), orphans)
	res.add("setup_s", "s", median(setup))
	res.add("targets_per_s", "1/s", median(rates))
	res.add("campaigns_per_s", "1/s", median(campaignRates))
	res.add("cpu_us_per_target", "us", median(cpuPerTarget))
	res.add("alloc_kb_per_target", "KiB", median(allocPerTarget))
	res.add("retained_mb", "MiB", float64(ms.HeapAlloc)/(1<<20))
	res.add("probes_per_subnet", "probes", ratio(float64(probes), float64(subnets)))
	acc.report(res)
	res.add("submit_to_report_p50_ms", "ms", percentile(lat, 50))
	res.add("submit_to_report_p95_ms", "ms", percentile(lat, 95))
	res.add("slo_attainment", "share", ratio(float64(slo), float64(res.attempted)))
	return res, nil
}

// accuracy sums groundtruth verdict counts over campaigns.
type accuracy struct {
	exactCollected, collected, exactTruth, truth int
}

func (a *accuracy) add(s *groundtruth.Score) {
	a.exactCollected += s.ExactCollected
	a.collected += s.CollectedSubnets
	a.exactTruth += s.ExactTruth
	a.truth += s.TruthSubnets
}

func (a *accuracy) report(res *result) {
	res.add("subnet_precision", "share", ratio(float64(a.exactCollected), float64(a.collected)))
	res.add("subnet_recall", "share", ratio(float64(a.exactTruth), float64(a.truth)))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the Go runtime's cumulative GC and allocation counts.
type runtimeSample struct {
	gcCycles       uint64
	gcCPU, allCPU  float64
	allocatedBytes uint64
}

var runtimeMetricNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		gcCycles:       s[0].Value.Uint64(),
		gcCPU:          s[1].Value.Float64(),
		allCPU:         s[2].Value.Float64(),
		allocatedBytes: s[3].Value.Uint64(),
	}
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 { return readRuntime().allocatedBytes }
