package daemon

import (
	"fmt"
	"strings"

	"tracenet/internal/collect"
	"tracenet/internal/core"
	"tracenet/internal/ipv4"
)

// The daemon renders its own final report instead of reusing
// collect.Report.WriteTo. The collect rendering is byte-stable across
// parallelism but NOT across interruption: a resumed campaign's report
// carries "resumed" placeholder rows, different topology observation
// counts, and a different wire-probe total, because the engine only knows
// what this run did. The daemon, which journals every completed target row
// in the spool, can render the union — so a campaign SIGTERM'd, restarted,
// and resumed produces a report byte-identical to an uninterrupted run.
//
// The price of that invariance is scope: the daemon report renders only
// quantities that are schedule- and resume-independent — per-target rows
// (reached, hops, subnets, trace probes are pure functions of the target on
// a deterministic substrate) and the sorted distinct-subnet inventory. Run
// accounting that genuinely differs across a resume (wire totals, cache
// hits) lives in the metrics exposition and the status document, not here.

// mergeRows folds this run's result rows over the journaled rows from prior
// generations: a row the engine marked resumed is replaced by the journaled
// detail of the run that actually traced it; every other row is converted
// fresh. Only completed targets are journaled — skipped or failed rows are
// retried by a resume, so persisting them would journal a non-outcome.
func mergeRows(results []collect.TargetResult, journaled []TargetRow) []TargetRow {
	byDst := indexRows(journaled)
	rows := make([]TargetRow, 0, len(results))
	for i := range results {
		r := &results[i]
		if r.Status == collect.StatusResumed {
			if j := byDst[r.Dst.String()]; j != nil {
				rows = append(rows, *j)
				continue
			}
			// A checkpoint recorded the target done but the journal has no
			// row (a foreign checkpoint, not a daemon resume): keep the
			// engine's placeholder so the loss is visible, not invented.
			rows = append(rows, TargetRow{Dst: r.Dst.String(), Status: string(r.Status), Note: r.Note})
			continue
		}
		rows = append(rows, TargetRow{
			Dst:         r.Dst.String(),
			Status:      string(r.Status),
			Reached:     r.Reached,
			Hops:        r.Hops,
			Subnets:     r.Subnets,
			TraceProbes: r.TraceProbes,
			Note:        r.Note,
		})
	}
	return rows
}

// journalRows filters merged rows down to what the spool journals: the
// completed targets, in input order.
func journalRows(rows []TargetRow) []TargetRow {
	var done []TargetRow
	for _, r := range rows {
		if r.Status == string(collect.StatusDone) {
			done = append(done, r)
		}
	}
	return done
}

// indexRows maps each destination to its first row, so a lookup per target
// stays constant-time however many rows were journaled.
func indexRows(rows []TargetRow) map[string]*TargetRow {
	byDst := make(map[string]*TargetRow, len(rows))
	for i := range rows {
		if _, dup := byDst[rows[i].Dst]; !dup {
			byDst[rows[i].Dst] = &rows[i]
		}
	}
	return byDst
}

// renderReport renders the resume-invariant final report: the campaign
// header, per-target rows in input order, and the distinct subnet inventory
// in its deterministic (prefix, pivot) order.
func renderReport(id, tenant string, targets []ipv4.Addr, rows []TargetRow, subnets []*core.Subnet) []byte {
	var b strings.Builder
	counts := struct{ done, skipped, failed, other int }{}
	for _, r := range rows {
		switch r.Status {
		case string(collect.StatusDone):
			counts.done++
		case string(collect.StatusSkipped):
			counts.skipped++
		case string(collect.StatusFailed):
			counts.failed++
		default:
			counts.other++
		}
	}
	fmt.Fprintf(&b, "campaign %s tenant %s: %d targets (done %d, skipped %d, failed %d, other %d)\n",
		id, tenant, len(targets), counts.done, counts.skipped, counts.failed, counts.other)
	byDst := indexRows(rows)
	for i := range targets {
		dst := targets[i].String()
		r := byDst[dst]
		if r == nil {
			fmt.Fprintf(&b, "  %-15s %-8s\n", dst, "unknown")
			continue
		}
		fmt.Fprintf(&b, "  %-15s %-8s", dst, r.Status)
		if r.Status == string(collect.StatusDone) {
			fmt.Fprintf(&b, " reached=%v hops=%d subnets=%d trace-probes=%d",
				r.Reached, r.Hops, r.Subnets, r.TraceProbes)
		}
		if r.Note != "" {
			fmt.Fprintf(&b, " (%s)", r.Note)
		}
		b.WriteByte('\n')
	}
	// Each distinct subnet is listed once. A campaign can grow the same
	// subnet from two hop contexts, while a resumed run serves the second
	// from its checkpoint, so listing the copies would make the inventory
	// depend on where the run was interrupted.
	seen := make(map[string]bool, len(subnets))
	var inventory []string
	for _, s := range subnets {
		if line := s.String(); !seen[line] {
			seen[line] = true
			inventory = append(inventory, line)
		}
	}
	fmt.Fprintf(&b, "\nsubnets (%d):\n", len(inventory))
	for _, line := range inventory {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return []byte(b.String())
}
