package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"tracenet/internal/groundtruth"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/telemetry"
	"tracenet/internal/topo"
)

// surveyTargets is the survey workload's destination count.
const surveyTargets = 10000

// runSurvey is the survey workload: every address of the leading subnets of
// a 1024-leaf random topology, traced on a clean substrate with the probe
// cache on and telemetry off.
func runSurvey(o opts) (*result, error) {
	var first []byte
	return inProcess{
		name:  "survey",
		build: buildSurvey,
		check: func(res *result, round []*campaignResult) {
			c := round[0]
			res.check(c.rep.Stats.Done == len(c.rep.Targets),
				"survey: %d of %d targets done", c.rep.Stats.Done, len(c.rep.Targets))
			// On a clean substrate the report does not depend on scheduling.
			if first == nil {
				first = c.report
			}
			res.check(bytes.Equal(c.report, first), "survey: report bytes differ between campaigns")
		},
	}.run(o)
}

// surveySpec is the survey's topology. Its structure is fixed so that runs
// with different seeds measure the same network: on a clean substrate a
// different random structure changes throughput and accuracy by more than
// the benchmark's bounds.
var surveySpec = topo.RandomSpec{Seed: 42, Backbone: 32, Leaves: 1024, LANFraction: 0.5, ExtraLinks: 8}

// buildSurvey takes every address of the topology's leading subnets up to
// surveyTargets, and lets the seed shuffle the order of those subnets. The
// addresses of one subnet stay adjacent, so neighbouring targets still
// share hop contexts.
func buildSurvey(seed int64) ([]*campaignRun, []float64, error) {
	tp, _ := topo.Random(surveySpec)
	var blocks [][]ipv4.Addr
	total := 0
	for _, s := range tp.Subnets {
		var block []ipv4.Addr
		for a := s.Prefix.Base(); a < s.Prefix.Base()+ipv4.Addr(s.Prefix.Size()) && total < surveyTargets; a++ {
			block = append(block, a)
			total++
		}
		if len(block) > 0 {
			blocks = append(blocks, block)
		}
	}
	if total < surveyTargets {
		return nil, nil, fmt.Errorf("survey: topology yields only %d destinations", total)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	targets := make([]ipv4.Addr, 0, total)
	for _, b := range blocks {
		targets = append(targets, b...)
	}
	t := time.Now()
	net := netsim.New(tp, netsim.Config{Seed: seed})
	newMs := float64(time.Since(t).Nanoseconds()) / 1e6
	return []*campaignRun{{
		net:      net,
		vantage:  "vantage",
		targets:  targets,
		truth:    groundtruth.FromTopology(tp, groundtruth.Options{}),
		parallel: workers,
		probe:    probe.Options{Cache: true},
	}}, []float64{newMs}, nil
}

// runISPObserved is the §4.2 scenario: the ISP-core destinations traced
// from each of the three vantages in turn, on lossy substrates with full
// telemetry on.
func runISPObserved(o opts) (*result, error) {
	return inProcess{
		name:  "isp-observed",
		build: buildISP,
		check: func(res *result, round []*campaignResult) {
			for i, c := range round {
				res.check(c.rep.Stats.Failed == 0 && c.rep.Stats.Skipped == 0,
					"isp-observed: vantage %s: %d targets failed, %d skipped",
					topo.VantageNames[i], c.rep.Stats.Failed, c.rep.Stats.Skipped)
			}
		},
	}.run(o)
}

// ispStructSeed fixes the ISP cores' structure and responsiveness mix.
const ispStructSeed = 1

func buildISP(seed int64) ([]*campaignRun, []float64, error) {
	var runs []*campaignRun
	var newMs []float64
	for i, vantage := range topo.VantageNames {
		// As experiments.RunISP: one structure, a different flaky-router
		// draw and loss stream per vantage campaign. The structure is fixed
		// and the seed draws the campaigns, as ISPCores separates them.
		sc := topo.ISPCores(ispStructSeed, seed+1000*int64(i+1))
		t := time.Now()
		net := netsim.New(sc.Topo, netsim.Config{Mode: netsim.PerFlow, LossRate: 0.02, Seed: seed + int64(i)*101})
		newMs = append(newMs, float64(time.Since(t).Nanoseconds())/1e6)
		tel := telemetry.New(net)
		tel.Recorder = telemetry.NewFlightRecorder(telemetry.DefaultFlightRecorderSize)
		cw := &countingWriter{}
		tel.Tracer = telemetry.NewTracer(cw)
		net.SetTelemetry(tel)
		runs = append(runs, &campaignRun{
			net:        net,
			vantage:    vantage,
			targets:    sc.TargetsFor(),
			truth:      groundtruth.FromTopology(sc.Topo, groundtruth.Options{}),
			parallel:   workers,
			probe:      probe.Options{Cache: true, FlowID: uint16(7 + i)},
			tel:        tel,
			traceBytes: cw,
		})
	}
	return runs, newMs, nil
}
