package topomap_test

import (
	"context"
	"sync"
	"testing"

	"tracenet/internal/collect"
	"tracenet/internal/core"
	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
	"tracenet/internal/topomap"
)

var (
	surveyOnce     sync.Once
	surveySessions []*core.Result
	surveyErr      error
)

// surveyResults collects, once per test binary, the sessions of a 10,000
// destination survey: every address of the leading subnets of a 1024-leaf
// random topology, traced on a clean substrate with the shared cache on.
func surveyResults(b *testing.B) []*core.Result {
	surveyOnce.Do(func() {
		tp, _ := topo.Random(topo.RandomSpec{Seed: 42, Backbone: 32, Leaves: 1024, LANFraction: 0.5, ExtraLinks: 8})
		var targets []ipv4.Addr
		for _, s := range tp.Subnets {
			for a := s.Prefix.Base(); a < s.Prefix.Base()+ipv4.Addr(s.Prefix.Size()) && len(targets) < 10000; a++ {
				targets = append(targets, a)
			}
		}
		net := netsim.New(tp, netsim.Config{Seed: 1})
		rep, err := collect.Run(context.Background(), collect.Config{
			Targets:  targets,
			Parallel: 2,
			Probe:    probe.Options{Cache: true},
			Dial: func(opts probe.Options) (*probe.Prober, error) {
				port, err := net.PortFor("vantage")
				if err != nil {
					return nil, err
				}
				return probe.New(port, port.LocalAddr(), opts), nil
			},
		})
		if err != nil {
			surveyErr = err
			return
		}
		for i := range rep.Targets {
			if res := rep.Targets[i].Result; res != nil {
				surveySessions = append(surveySessions, res)
			}
		}
	})
	if surveyErr != nil {
		b.Fatal(surveyErr)
	}
	return surveySessions
}

// BenchmarkMapAddSessions is the topomap layer of the collect merge: fold
// the 10,000 sessions of a survey campaign into a fresh map, as
// collect.Report does at the end of every campaign. Collecting the sessions
// is set-up and stays outside the timed loop.
func BenchmarkMapAddSessions(b *testing.B) {
	sessions := surveyResults(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := topomap.New()
		for _, res := range sessions {
			m.AddSession(res)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(sessions)), "ns/session")
}
