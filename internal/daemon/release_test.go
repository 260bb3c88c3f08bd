// The weak package arrived in Go 1.24; toolchains older than that, which
// the module's go line still admits, leave this file out.

//go:build go1.24

package daemon

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"weak"

	"tracenet/internal/netsim"
)

// TestFinishedCampaignReleasesNetwork: once a campaign is final, the daemon
// holds nothing that reaches its substrate, so a long-lived daemon does not
// grow by one network per finished campaign.
func TestFinishedCampaignReleasesNetwork(t *testing.T) {
	var (
		once sync.Once
		net  weak.Pointer[netsim.Network]
		h    *harness
	)
	h = startDaemon(t, t.TempDir(), Config{}, func(d *Daemon) {
		d.testTargetDone = func(id string, _ int) {
			once.Do(func() {
				cs := d.campaign(id)
				d.mu.Lock()
				net = weak.Make(cs.tel.Clock.(*netsim.Network))
				d.mu.Unlock()
			})
		}
	})
	id := h.submit(t, &Spec{Tenant: "alice", Topology: "figure3"})
	if st := h.await(t, id); st[id] != stateDone {
		t.Fatalf("outcome: %v", st)
	}
	// Draining waits for the runner to return, so no stack frame of the
	// finished run is left to hold the network either.
	if err := h.d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	if net.Value() != nil {
		t.Fatal("a finished campaign's network is still reachable from the daemon")
	}
	if doc, err := h.d.Status(id); err != nil || doc.Progress == nil {
		t.Errorf("status after release = %+v, %v; want the progress snapshot kept", doc, err)
	}
}
