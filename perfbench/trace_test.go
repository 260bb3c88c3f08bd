package main

import (
	"testing"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
	"tracenet/internal/topo"
)

func TestSelfTimeSubtractsChildCoverageOnce(t *testing.T) {
	spans := []span{
		{name: "target", parent: -1, start: 0, end: 100},
		{name: "exchange", parent: 0, start: 10, end: 30},
		{name: "exchange", parent: 0, start: 20, end: 40},  // overlaps the first
		{name: "exchange", parent: 0, start: 90, end: 120}, // runs past the parent
		{name: "campaign", parent: -1, start: 200, end: 250},
	}
	self := selfTimes(spans)
	want := []int64{100 - 30 - 10, 20, 20, 30, 50}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, self[i], want[i])
		}
	}
}

func TestLinkerTiesDialToFirstProbeDestination(t *testing.T) {
	n := netsim.New(topo.Figure3(), netsim.Config{})
	for _, traced := range []bool{false, true} {
		var now int64
		k := newLinker(func() int64 { now++; return now }, traced)
		port, err := n.PortFor("vantage")
		if err != nil {
			t.Fatal(err)
		}
		pr := k.dial(port, probe.Options{})
		dst := ipv4.MustParseAddr("10.0.5.2")
		if _, err := pr.Probe(dst, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := pr.Probe(ipv4.MustParseAddr("10.0.1.1"), 2); err != nil {
			t.Fatal(err)
		}
		l := k.done(dst)
		if l == nil {
			t.Fatalf("traced=%v: no link for the first probe's destination", traced)
		}
		if l.pr != pr || l.dst != dst || l.dialAt != 1 {
			t.Errorf("traced=%v: link = %+v, want prober %p dst %v dialled at 1", traced, l, pr, dst)
		}
		if traced && (len(l.exchanges) != 2 || len(l.replies) == 0) {
			t.Errorf("traced run timed %d exchanges, kept %d replies; want 2 and at least 1", len(l.exchanges), len(l.replies))
		}
		if !traced && len(l.exchanges) != 0 {
			t.Errorf("untraced run timed %d exchanges, want none", len(l.exchanges))
		}
		if k.done(dst) != nil || k.orphans != 1 {
			t.Errorf("a target finished twice must count as an orphan the second time")
		}
	}
}
