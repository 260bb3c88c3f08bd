package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"tracenet/internal/groundtruth"
	"tracenet/internal/probe"
	"tracenet/internal/topomap"
	"tracenet/internal/wire"
)

// runTraced is an in-process workload's traced run. It first runs untraced
// rounds for half the time, then one traced round whose spans give the
// per-layer metrics; the ratio of the two rates is the tracing overhead.
func (w inProcess) runTraced(o opts, res *result, runs []*campaignRun, newMs []float64) (*result, error) {
	epoch := time.Now()
	clock := func() int64 { return int64(time.Since(epoch)) }
	var rates []float64
	deadline := time.Now().Add(time.Duration(o.seconds / 2 * float64(time.Second)))
	for rounds := 0; rounds < 2 || time.Now().Before(deadline); rounds++ {
		round, err := runRound(runs, clock, false)
		if err != nil {
			return nil, err
		}
		w.check(res, round)
		rates = append(rates, roundRate(round))
	}

	tl := newSpanLog()
	round, err := tracedRound(res, tl, runs)
	if err != nil {
		return nil, err
	}
	w.check(res, round)
	for _, c := range round {
		res.attempted += len(c.rep.Targets)
		res.failed += len(c.rep.Targets) - c.rep.Stats.Done
	}
	res.add("netsim.new_ms", "ms", median(newMs))
	res.add("trace.overhead_ratio", "x", ratio(median(rates), roundRate(round)))
	addIdleDaemonLayers(res)
	return res, writeSpans(tl, w.name, o.seed)
}

// roundRate is a round's targets per second of campaign time.
func roundRate(round []*campaignResult) float64 {
	var targets int
	var ns int64
	for _, c := range round {
		targets += len(c.rep.Targets)
		ns += c.end - c.start
	}
	return ratio(float64(targets), float64(ns)/1e9)
}

// writeSpans saves a traced run's spans under the build directory.
func writeSpans(tl *spanLog, workload string, seed int64) error {
	path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := tl.write(path); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", len(tl.spans), path)
	return nil
}

// tracedRound runs one traced round, records its spans, and derives the
// per-layer metrics of the wire, netsim, probe, core, collect, topomap,
// report, groundtruth, telemetry and runtime layers. Counts are per
// campaign.
func tracedRound(res *result, tl *spanLog, runs []*campaignRun) ([]*campaignResult, error) {
	// Forced collections bracket the round, so the runtime's GC accounting
	// is current at both ends and covers the round's own garbage.
	runtime.GC()
	rt0 := readRuntime()
	round, err := runRound(runs, tl.now, true)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	rt1 := readRuntime()

	var (
		exchNs, targetMs                []float64
		exchBytes, silent, exchTotalNs  float64
		targetTotalNs, campaignWorkerNs float64
		mergeMs, renderMs               float64
		targetIdx                       []int
		replies                         [][]byte
		stats                           probe.Stats
		hits, misses, saved, wireProbes uint64
		traceBytes                      uint64
	)
	for i, c := range round {
		cid := tl.add("campaign", -1, c.start, c.end)
		tl.add("collect.merge", cid, c.lastDone, c.runEnd)
		tl.add("report.render", cid, c.runEnd, c.end)
		for _, l := range c.links {
			tid := tl.add("target", cid, l.dialAt, l.doneAt)
			targetIdx = append(targetIdx, tid)
			targetMs = append(targetMs, float64(l.doneAt-l.dialAt)/1e6)
			targetTotalNs += float64(l.doneAt - l.dialAt)
			for _, e := range l.exchanges {
				tl.add("exchange", tid, e.start, e.end)
				exchNs = append(exchNs, float64(e.end-e.start))
				exchTotalNs += float64(e.end - e.start)
				exchBytes += float64(e.bytes)
				if e.silent {
					silent++
				}
			}
			replies = append(replies, l.replies...)
			stats = addStats(stats, l.pr.Stats())
		}
		campaignWorkerNs += float64(runs[i].parallel) * float64(c.runEnd-c.start)
		mergeMs += float64(c.runEnd-c.lastDone) / 1e6
		renderMs += float64(c.end-c.runEnd) / 1e6
		hits += c.rep.Stats.CacheHits
		misses += c.rep.Stats.CacheMisses
		saved += c.rep.Stats.ProbesSaved
		wireProbes += c.rep.Stats.WireProbes
		traceBytes += c.traceBytes
	}
	self := selfTimes(tl.spans)
	var selfNs float64
	for _, i := range targetIdx {
		selfNs += float64(self[i])
	}
	n := float64(len(round))
	exchanges := float64(len(exchNs))

	res.add("wire.decode_ns", "ns", decodeNs(replies))
	res.add("wire.bytes_per_exchange", "B", ratio(exchBytes, exchanges))
	res.add("netsim.exchanges", "count", exchanges/n)
	res.add("netsim.exchange_ns_p50", "ns", percentile(exchNs, 50))
	res.add("netsim.exchange_ns_p99", "ns", percentile(exchNs, 99))
	res.add("netsim.busy_share", "share", ratio(exchTotalNs, campaignWorkerNs))
	res.add("netsim.silent_share", "share", ratio(silent, exchanges))
	res.add("probe.sent", "count", float64(stats.Sent)/n)
	res.add("probe.answered_share", "share", ratio(float64(stats.Answered), float64(stats.Sent)))
	res.add("probe.retry_share", "share", ratio(float64(stats.Retries), float64(stats.Sent)))
	res.add("probe.cached_share", "share", ratio(float64(stats.Cached), float64(stats.Cached+stats.Sent-stats.Retries)))
	res.add("probe.backoff_ticks", "ticks", float64(stats.BackoffTicks)/n)
	res.add("core.trace_self_us_per_target", "us", ratio(selfNs/1e3, float64(len(targetIdx))))
	res.add("collect.target_ms_p50", "ms", percentile(targetMs, 50))
	res.add("collect.target_ms_p99", "ms", percentile(targetMs, 99))
	res.add("collect.cache_hit_ratio", "share", ratio(float64(hits), float64(hits+misses)))
	res.add("collect.probes_saved_share", "share", ratio(float64(saved), float64(saved+wireProbes)))
	res.add("collect.worker_busy_share", "share", ratio(targetTotalNs, campaignWorkerNs))
	res.add("collect.merge_ms", "ms", mergeMs/n)
	res.add("report.render_ms", "ms", renderMs/n)
	res.add("telemetry.trace_bytes_per_probe", "B", ratio(float64(traceBytes), float64(wireProbes)))
	// Not counted: the collection forced before each campaign and the one
	// after the round.
	forced := uint64(len(round) + 1)
	res.add("runtime.gc_cycles", "count", float64(rt1.gcCycles-rt0.gcCycles-forced)/n)
	res.add("runtime.gc_cpu_share", "share", ratio(rt1.gcCPU-rt0.gcCPU, rt1.allCPU-rt0.allCPU))

	// The map build and the scoring are replayed on the round's results:
	// collect.Run builds its map inside the campaign, and the in-process
	// workloads score outside the timed region.
	var buildNs, scoreNs int64
	for i, c := range round {
		t := time.Now()
		m := topomap.New()
		for j := range c.rep.Targets {
			if r := c.rep.Targets[j].Result; r != nil {
				m.AddSession(r)
			}
		}
		buildNs += int64(time.Since(t))
		t = time.Now()
		runs[i].truth.Score(groundtruth.FromCoreSubnets(c.rep.Subnets()))
		scoreNs += int64(time.Since(t))
	}
	res.add("topomap.build_ms", "ms", float64(buildNs)/1e6/n)
	res.add("groundtruth.score_ms", "ms", float64(scoreNs)/1e6/n)
	return round, nil
}

// decodeNs replays wire.DecodeInto over replies captured in the traced run
// and returns the mean time per decode.
func decodeNs(replies [][]byte) float64 {
	if len(replies) == 0 {
		return 0
	}
	var s wire.DecodeScratch
	decodes := 0
	t := time.Now()
	for decodes < 200000 {
		for _, r := range replies {
			s.DecodeInto(r) // a mangled reply's error costs time too
		}
		decodes += len(replies)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(decodes)
}

// addStats sums two probers' stats.
func addStats(a, b probe.Stats) probe.Stats {
	a.Sent += b.Sent
	a.Answered += b.Answered
	a.Retries += b.Retries
	a.Cached += b.Cached
	a.BackoffTicks += b.BackoffTicks
	return a
}

// daemonLayers are the per-layer metrics only the service workload moves.
var daemonLayers = []struct{ name, unit string }{
	{"daemon.submit_ms_p50", "ms"},
	{"daemon.queue_wait_ms_p50", "ms"},
	{"daemon.run_ms_p50", "ms"},
	{"daemon.report_fetch_ms_p50", "ms"},
	{"daemon.polls_per_campaign", "count"},
	{"daemon.report_missing_after_done", "share"},
	{"daemon.spool_kb_per_campaign", "KiB"},
}

// addIdleDaemonLayers reports the daemon layer as unused: the in-process
// workloads never start a daemon.
func addIdleDaemonLayers(res *result) {
	for _, m := range daemonLayers {
		res.add(m.name, m.unit, 0)
	}
}
