package daemon

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"tracenet/internal/cli"
)

// TestFinishPublishesAfterArtifacts pins the contract "status done ⇒
// artifacts readable": at the hook between persisting a campaign's outcome
// and publishing it, every artifact and the final state.json are already in
// the spool while the API still reports the campaign running. A Cancel that
// lands inside that window waits for the final status and is refused with
// it, instead of answering "cancelling" for a run that is already over.
func TestFinishPublishesAfterArtifacts(t *testing.T) {
	type cancelResult struct {
		status string
		err    error
	}
	cancelWaits := make(chan struct{}, 1)
	cancelled := make(chan cancelResult, 1)
	var h *harness
	dir := t.TempDir()
	h = startDaemon(t, dir, Config{}, func(d *Daemon) {
		d.testCancelWaits = func(string) {
			select {
			case cancelWaits <- struct{}{}:
			default:
			}
		}
		d.testBeforePublish = func(id, status string) {
			if status != stateDone {
				t.Errorf("%s finishing as %s, want done", id, status)
			}
			var persisted State
			if err := (spool{dir: dir}).readJSON(id+".state.json", &persisted); err != nil {
				t.Error(err)
			} else if persisted.Status != stateDone {
				t.Errorf("state.json before publish = %s, want done", persisted.Status)
			}
			// The hook runs on a runner goroutine, so failures are reported
			// with t.Errorf rather than through the t.Fatal helpers.
			for _, suffix := range []string{"report", "eval", "checkpoint"} {
				resp, err := http.Get(h.url + "/api/v1/campaigns/" + id + "/" + suffix)
				if err != nil {
					t.Errorf("%s before publish: %v", suffix, err)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s before publish: status %d, want 200", suffix, resp.StatusCode)
				}
			}
			if doc, err := d.Status(id); err != nil || doc.Status != stateRunning {
				t.Errorf("status before publish = %+v, %v; want running", doc, err)
			}

			go func() {
				st, err := d.Cancel(id)
				cancelled <- cancelResult{st, err}
			}()
			select {
			case <-cancelWaits:
			case r := <-cancelled:
				t.Errorf("Cancel answered %q, %v inside the publish window", r.status, r.err)
				cancelled <- r
			}
		}
	})

	id := h.submit(t, &Spec{Tenant: "alice", Topology: "figure3", Eval: true})
	if st := h.await(t, id); st[id] != stateDone {
		t.Fatalf("outcome: %v", st)
	}
	r := <-cancelled
	if !errors.Is(r.err, ErrCampaignFinal) || r.status != stateDone {
		t.Errorf("Cancel inside the window = %q, %v; want done, ErrCampaignFinal", r.status, r.err)
	}
	if code, _ := h.do(t, "GET", "/api/v1/campaigns/"+id+"/report", nil); code != http.StatusOK {
		t.Errorf("report after done: status %d", code)
	}
}

// TestDrainInsidePublishWindow: a drain that lands after a run is over but
// before its status is published leaves the outcome as it was — done in
// the spool and in the API — and enrolls no re-scan generation.
func TestDrainInsidePublishWindow(t *testing.T) {
	dir := t.TempDir()
	drainErr := make(chan error, 1)
	h := startDaemon(t, dir, Config{}, func(d *Daemon) {
		d.testBeforePublish = func(id, status string) {
			// An already-cancelled context makes Drain do its synchronous
			// part (refuse submissions, cancel running contexts) and return
			// without waiting for this runner.
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			drainErr <- d.Drain(ctx)
		}
	})
	id := h.submit(t, &Spec{Tenant: "alice", Topology: "figure3", RescanInterval: 1, MaxRescans: 1})
	if st := h.await(t, id); st[id] != stateDone {
		t.Fatalf("outcome: %v", st)
	}
	if err := <-drainErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("drain inside the window: %v", err)
	}
	if err := h.d.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var persisted State
	if err := (spool{dir: dir}).readJSON(id+".state.json", &persisted); err != nil {
		t.Fatal(err)
	}
	if persisted.Status != stateDone {
		t.Errorf("state.json = %s, want done", persisted.Status)
	}
	if doc, err := h.d.Status(id); err != nil || doc.Status != stateDone {
		t.Errorf("status = %+v, %v; want done", doc, err)
	}
	if _, err := h.d.Status(id + ".r1"); err == nil {
		t.Error("a re-scan was enrolled while draining")
	}
}

// TestResumeLargeCampaignByteIdentity: a 2,000-target campaign drained
// halfway and resumed renders the same report bytes as an uninterrupted
// run. The resume folds every journaled row back in by destination, which
// must stay linear in the number of targets.
func TestResumeLargeCampaignByteIdentity(t *testing.T) {
	const n, interruptAt = 2000, 1000
	sc, err := cli.Load("isps", 1)
	if err != nil {
		t.Fatal(err)
	}
	var targets []string
	for _, s := range sc.Topo.Subnets {
		for _, i := range s.Ifaces {
			if len(targets) < n {
				targets = append(targets, i.Addr.String())
			}
		}
	}
	if len(targets) != n {
		t.Fatalf("topology yields %d targets, want %d", len(targets), n)
	}
	spec := &Spec{Tenant: "alice", Topology: "isps", Seed: 1, Targets: targets, Parallel: 2}

	control := startDaemon(t, t.TempDir(), Config{}, nil)
	id := control.submit(t, spec)
	if st := control.await(t, id); st[id] != stateDone {
		t.Fatalf("control outcome: %v", st)
	}
	_, want := control.do(t, "GET", "/api/v1/campaigns/"+id+"/report", nil)

	dir := t.TempDir()
	hit := make(chan struct{})
	hold := make(chan struct{})
	var once sync.Once
	h2 := startDaemon(t, dir, Config{}, func(d *Daemon) {
		d.testTargetDone = func(_ string, done int) {
			if done < interruptAt {
				return
			}
			once.Do(func() { close(hit) })
			<-hold
		}
	})
	h2.submit(t, spec)
	<-hit
	drained := make(chan error, 1)
	go func() { drained <- h2.d.Drain(context.Background()) }()
	cs := h2.d.campaign(id)
	h2.d.mu.Lock()
	cctx := cs.ctx
	h2.d.mu.Unlock()
	<-cctx.Done()
	close(hold)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	var persisted State
	if err := (spool{dir: dir}).readJSON(id+".state.json", &persisted); err != nil {
		t.Fatal(err)
	}
	if persisted.Status != stateInterrupted || len(persisted.Rows) < interruptAt || len(persisted.Rows) >= n {
		t.Fatalf("after drain: %s with %d rows, want interrupted with %d..%d", persisted.Status, len(persisted.Rows), interruptAt, n-1)
	}

	h3 := startDaemon(t, dir, Config{}, nil)
	if st := h3.await(t, id); st[id] != stateDone {
		t.Fatalf("resumed outcome: %v", st)
	}
	_, got := h3.do(t, "GET", "/api/v1/campaigns/"+id+"/report", nil)
	if !bytes.Equal(got, want) {
		t.Errorf("resumed report differs from control (%d vs %d bytes)", len(got), len(want))
	}
	if !bytes.Contains(got, []byte(fmt.Sprintf(": %d targets (done %d,", n, n))) {
		t.Errorf("resumed report header: %q", bytes.SplitN(got, []byte("\n"), 2)[0])
	}
}
