package main

import (
	"errors"
	"net/http"
	"testing"
)

func TestClassifyServiceFailures(t *testing.T) {
	for _, c := range []struct {
		step string
		code int
		err  error
		want string
	}{
		{"submit", http.StatusAccepted, nil, ""},
		{"status", http.StatusOK, nil, ""},
		{"report", http.StatusOK, nil, ""},
		{"submit", http.StatusTooManyRequests, nil, "submit: rejected (429)"},
		{"submit", http.StatusServiceUnavailable, nil, "submit: unavailable (503)"},
		{"submit", http.StatusOK, nil, "submit: unexpected status 200"},
		{"status", 0, errors.New("connection reset"), "status: transport error"},
		{"report", http.StatusNotFound, nil, "report: missing after done (404)"},
		{"eval", http.StatusNotFound, nil, "eval: missing after done (404)"},
		{"status", http.StatusNotFound, nil, "status: unexpected status 404"},
		{"report", http.StatusInternalServerError, nil, "report: unexpected status 500"},
	} {
		if got := classify(c.step, c.code, c.err); got != c.want {
			t.Errorf("classify(%s, %d, %v) = %q, want %q", c.step, c.code, c.err, got, c.want)
		}
	}
}

func TestReportRowsCountsTargetRowsOnly(t *testing.T) {
	report := "campaign c1 tenant a: 2 targets (done 2, skipped 0, failed 0, other 0)\n" +
		"  10.0.0.1        done     reached=true hops=3 subnets=2 trace-probes=4\n" +
		"  10.0.0.2        done     reached=true hops=3 subnets=2 trace-probes=4\n" +
		"\nsubnets (3):\n  10.0.0.0/30\n  10.0.1.0/30\n  10.0.2.0/24\n"
	if got := reportRows([]byte(report)); got != 2 {
		t.Errorf("reportRows = %d, want 2", got)
	}
}

func TestMissingReportIsAFailedCampaignAndAnSLOMiss(t *testing.T) {
	ms := int64(1e6)
	outcomes := []outcome{
		{submit: 0, done: 40 * ms, reported: 50 * ms, status: "done", targets: 179},
		{submit: 0, done: 40 * ms, status: "done", targets: 179, failure: classify("report", http.StatusNotFound, nil)},
		{submit: 0, done: 290 * ms, reported: 300 * ms, status: "done", targets: 179},
		{submit: 0, failure: classify("submit", http.StatusTooManyRequests, nil)},
		{submit: 0, done: 40 * ms, reported: 45 * ms, status: "done", targets: 179, evalFailure: classify("eval", http.StatusNotFound, nil)},
	}
	res := &result{correct: true}
	s := summarise(res, outcomes)
	if s.attempted != 5 || s.done != 4 || s.reported != 3 || s.succeeded != 2 || s.slo != 2 {
		t.Errorf("attempted %d done %d reported %d succeeded %d within SLO %d; want 5, 4, 3, 2, 2",
			s.attempted, s.done, s.reported, s.succeeded, s.slo)
	}
	if len(s.latencies) != 3 || s.doneTargets != 4*179 {
		t.Errorf("latencies %v, done targets %d; want 3 samples and %d", s.latencies, s.doneTargets, 4*179)
	}
	if len(s.failures) != 3 {
		t.Errorf("failure classes %v, want the report 404, the 429 and the eval 404", s.failures)
	}
	if !res.correct {
		t.Errorf("failed operations are not failed output checks: %v", res.problems)
	}
}

func TestFinishWatchSignalsWrittenArtifacts(t *testing.T) {
	w := newFinishWatch()
	landed := w.landed("c-1")
	// The logger writes a record and its newline separately.
	for _, chunk := range []string{
		`{"tick":1,"level":"info","msg":"campaign started","campaign":"c-1"}`, "\n",
		`{"tick":2,"level":"error","msg":"spool write failed","campaign":"c-2","err":"disk full"}`, "\n",
		`{"tick":3,"level":"info","msg":"campaign fin`, `ished","campaign":"c-1","status":"done"}`,
	} {
		w.Write([]byte(chunk))
	}
	select {
	case <-landed:
		t.Fatal("c-1 signalled before its record was complete")
	default:
	}
	w.Write([]byte("\n"))
	select {
	case <-landed:
	default:
		t.Fatal("c-1 not signalled after its finished record")
	}
	// A second finished record, or a wait that starts late, does not block
	// or panic.
	w.Write([]byte(`{"msg":"campaign finished","campaign":"c-1"}` + "\n"))
	<-w.landed("c-1")
	if errs := w.spoolErrors(); len(errs) != 1 || errs[0] != "c-2: disk full" {
		t.Errorf("spool errors %q, want the one c-2 failure", errs)
	}
}
