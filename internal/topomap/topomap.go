// Package topomap assembles tracenet session results into a subnet-level
// topology map — the artifact the paper positions tracenet as the collector
// for (§1: subnet-level maps "enrich the router level maps with subnet level
// connectivity info"). The map answers the questions that motivated
// Figure 2: which addresses share a LAN, and whether two paths are really
// link-disjoint.
//
// Sessions from multiple vantage points or campaigns can be merged into one
// map; overlapping observations of the same subnet are reconciled by keeping
// the larger prefix's membership union.
//
// Invariant: the map's entries are pairwise disjoint. CIDR prefixes overlap
// only when one contains the other, and every merge absorbs all entries an
// observation overlaps into one. An observation therefore overlaps at most
// one entry containing it, or else only entries inside its own prefix, and
// with entries kept in base-address order both are found by one binary
// search: the containing entry is the last one starting at or below the
// observation's base, the contained ones are the run starting inside its
// range. Merging an observation costs O(log n) for the lookup, plus a
// linear merge of the entry's sorted member list, plus one slice shift when
// the entry is new or absorbs others; SubnetOf is a map hit or the same
// binary search.
package topomap

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
)

// Map is an accumulating subnet-level topology map.
// The zero value is not usable; call New.
type Map struct {
	// entries are the map's subnets, pairwise disjoint and ordered by base
	// address (so the bases are distinct).
	entries []*Entry
	// addrEntry resolves a member address to the entry that last merged it.
	addrEntry map[ipv4.Addr]*Entry
	// hops records every trace adjacency observed: an (earlier hop, later
	// hop) pair of responding addresses on some path.
	hops map[[2]ipv4.Addr]int
	// anon records anonymous hops by their responding neighbours, the
	// standard anonymous-router resolution heuristic ([8]: two '*' nodes
	// with the same known neighbours are one router).
	anon map[[2]ipv4.Addr]int
}

// Entry is one subnet of the map with its accumulated observations.
type Entry struct {
	Prefix ipv4.Prefix
	// Addrs is the union of member addresses over all observations.
	Addrs []ipv4.Addr
	// Observations counts how many sessions contributed.
	Observations int
	// OnPath reports whether any observation found the subnet on its trace
	// path.
	OnPath bool
	// Conflicts records prefix-length disagreements among the observations
	// merged into this entry (e.g. "observed as 10.0.3.0/31 and 10.0.3.0/29"),
	// sorted and deduplicated. A conflicted entry keeps the largest observed
	// prefix; the notes preserve what the losing observations claimed.
	Conflicts []string
	// Confidence is the minimum confidence over the merged observations
	// (core.Subnet.Confidence), capped at conflictedConfidence once any
	// prefix-length conflict is recorded. Observations that do not track
	// confidence (zero value) count as 1. Minimum, OR, and cap are all
	// order-independent, so merged maps stay schedule-deterministic.
	Confidence float64
	// Degraded reports whether any merged observation was degraded, or the
	// observations disagreed about the subnet's size — the conflict-aware
	// demotion of DESIGN.md §11: an adversarially-tainted entry is reported
	// degraded rather than asserted.
	Degraded bool
}

// conflictedConfidence caps the confidence of an entry whose observations
// disagree about the subnet's prefix length: at most one of them can be
// right, so the entry cannot be asserted at more than coin-flip confidence.
const conflictedConfidence = 0.5

// addConflict records a prefix-length disagreement between two observations
// of the same address space, keeping the note list sorted and deduplicated.
func (e *Entry) addConflict(a, b ipv4.Prefix) {
	if a == b {
		return
	}
	e.Degraded = true
	if e.Confidence > conflictedConfidence {
		e.Confidence = conflictedConfidence
	}
	// Canonical operand order keeps the note stable regardless of which
	// observation arrived first.
	if b.Base() < a.Base() || (b.Base() == a.Base() && b.Bits() < a.Bits()) {
		a, b = b, a
	}
	e.addNote(fmt.Sprintf("observed as %v and %v", a, b))
}

// addNote appends a conflict note, keeping the list sorted and deduplicated.
func (e *Entry) addNote(note string) {
	for _, have := range e.Conflicts {
		if have == note {
			return
		}
	}
	e.Conflicts = append(e.Conflicts, note)
	sort.Strings(e.Conflicts)
}

// New returns an empty map.
func New() *Map {
	return &Map{
		addrEntry: make(map[ipv4.Addr]*Entry),
		hops:      make(map[[2]ipv4.Addr]int),
		anon:      make(map[[2]ipv4.Addr]int),
	}
}

// AddSubnets merges collected subnets into the map without trace-path
// context (no adjacency or anonymous-router bookkeeping) — useful when
// merging observations from several vantage points or campaigns.
func (m *Map) AddSubnets(subnets []*core.Subnet) {
	for _, s := range subnets {
		if s.Prefix.Bits() >= 32 {
			continue
		}
		m.addSubnet(s)
	}
}

// AddSession merges one tracenet result into the map.
func (m *Map) AddSession(res *core.Result) {
	for _, s := range res.Subnets {
		if s.Prefix.Bits() >= 32 {
			continue
		}
		m.addSubnet(s)
	}
	var prev ipv4.Addr
	pendingAnon := false
	var anonPrev ipv4.Addr
	for _, h := range res.Hops {
		if h.Anonymous() {
			if !prev.IsZero() {
				pendingAnon, anonPrev = true, prev
			}
			prev = ipv4.Zero
			continue
		}
		if pendingAnon {
			// One anonymous hop between two responders: record the
			// placeholder router by its neighbour pair.
			m.anon[[2]ipv4.Addr{anonPrev, h.Addr}]++
			pendingAnon = false
		}
		if !prev.IsZero() {
			m.hops[[2]ipv4.Addr{prev, h.Addr}]++
		}
		prev = h.Addr
	}
}

// containing returns the entry whose prefix contains p (p itself
// included), or nil, and the index of the first entry starting at or above
// p's base. Entries are disjoint, so the only candidate is the last entry
// starting at or below p's base.
func (m *Map) containing(p ipv4.Prefix) (*Entry, int) {
	i := sort.Search(len(m.entries), func(i int) bool { return m.entries[i].Prefix.Base() >= p.Base() })
	k := i - 1
	if i < len(m.entries) && m.entries[i].Prefix.Base() == p.Base() {
		k = i
	}
	if k >= 0 {
		if e := m.entries[k]; e.Prefix.Bits() <= p.Bits() && e.Prefix.Contains(p.Base()) {
			return e, i
		}
	}
	return nil, i
}

func (m *Map) addSubnet(s *core.Subnet) {
	// Reconcile overlapping prefixes: the same physical subnet may have been
	// observed at different sizes from different campaigns; one entry keyed
	// by the largest (shortest) prefix holds the union. By the disjointness
	// invariant the observation overlaps either one entry containing it, or
	// a run of entries inside it.
	e, i := m.containing(s.Prefix)
	if e != nil {
		e.addConflict(e.Prefix, s.Prefix)
		m.mergeObservation(e, s, nil)
		return
	}
	last := s.Prefix.Last()
	j := i
	for j < len(m.entries) && m.entries[j].Prefix.Base() <= last {
		j++
	}
	if i == j {
		e := &Entry{Prefix: s.Prefix, Confidence: 1}
		m.entries = slices.Insert(m.entries, i, e)
		m.mergeObservation(e, s, nil)
		return
	}

	// A large observation can cover several previously separate entries:
	// every one is absorbed into the lowest, so no address space is listed
	// twice.
	e = m.entries[i]
	absorbed := m.entries[i+1 : j]
	for _, o := range absorbed {
		// Absorb the later entry: its members, observation count, and any
		// conflict notes it already carried move onto the survivor, and the
		// size disagreement between the two is itself recorded.
		e.addConflict(e.Prefix, o.Prefix)
		for _, c := range o.Conflicts {
			e.addNote(c)
		}
		e.Observations += o.Observations
		e.OnPath = e.OnPath || o.OnPath
		e.Degraded = e.Degraded || o.Degraded
		if o.Confidence < e.Confidence {
			e.Confidence = o.Confidence
		}
	}
	e.addConflict(e.Prefix, s.Prefix)
	// The new observation is the largest: re-key the survivor. Its base
	// moves down to s's, which no other entry lies between, so its position
	// in the index holds.
	e.Prefix = s.Prefix
	m.mergeObservation(e, s, absorbed)
	m.entries = slices.Delete(m.entries, i+1, j)
}

// mergeObservation unions one observation's members, and those of the
// entries e absorbed, into e's sorted member list, points the address index
// at e for every member, and bumps e's accounting.
func (m *Map) mergeObservation(e *Entry, s *core.Subnet, absorbed []*Entry) {
	addrs := s.Addrs
	if !slices.IsSorted(addrs) {
		addrs = slices.Clone(addrs)
		slices.Sort(addrs)
	}
	merged := unionSorted(e.Addrs, addrs)
	for _, o := range absorbed {
		merged = unionSorted(merged, o.Addrs)
	}
	e.Addrs = merged
	for _, a := range e.Addrs {
		m.addrEntry[a] = e
	}
	e.Observations++
	e.OnPath = e.OnPath || s.OnPath
	e.Degraded = e.Degraded || s.Degraded
	// Subnets built without confidence tracking (handcrafted literals, older
	// checkpoints) carry the zero value; they count as fully confident.
	if conf := s.Confidence; conf > 0 && conf < e.Confidence {
		e.Confidence = conf
	}
}

// unionSorted returns the ascending, duplicate-free union of two ascending
// lists: a itself when b adds nothing (a re-observation, the common case),
// else a fresh slice, so an entry never shares its list with an observation.
func unionSorted(a, b []ipv4.Addr) []ipv4.Addr {
	if containsSorted(a, b) {
		return a
	}
	out := make([]ipv4.Addr, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var next ipv4.Addr
		if len(b) == 0 || (len(a) > 0 && a[0] <= b[0]) {
			next, a = a[0], a[1:]
		} else {
			next, b = b[0], b[1:]
		}
		if len(out) == 0 || out[len(out)-1] != next {
			out = append(out, next)
		}
	}
	return out
}

// containsSorted reports whether every element of the ascending list b is
// in the ascending list a.
func containsSorted(a, b []ipv4.Addr) bool {
	i := 0
	for _, x := range b {
		for i < len(a) && a[i] < x {
			i++
		}
		if i == len(a) || a[i] != x {
			return false
		}
	}
	return true
}

// Subnets returns the map's entries ordered by prefix base address.
func (m *Map) Subnets() []*Entry {
	return append(make([]*Entry, 0, len(m.entries)), m.entries...)
}

// SubnetOf returns the map's subnet containing addr (as an observed member
// or by prefix), or nil.
func (m *Map) SubnetOf(addr ipv4.Addr) *Entry {
	if e, ok := m.addrEntry[addr]; ok {
		return e
	}
	e, _ := m.containing(ipv4.NewPrefix(addr, 32))
	return e
}

// SameLAN reports whether two addresses were observed on the same subnet —
// the "being on the same LAN" relationship of the paper's abstract.
func (m *Map) SameLAN(a, b ipv4.Addr) bool {
	ea, eb := m.SubnetOf(a), m.SubnetOf(b)
	return ea != nil && ea == eb
}

// AddrCount returns the number of distinct member addresses in the map.
func (m *Map) AddrCount() int { return len(m.addrEntry) }

// LinkDisjoint reports whether two paths (given as their responding hop
// addresses) share no subnet: the overlay-network question of Figure 2.
// Paths that look disjoint address-wise may still share a LAN; the subnet
// map catches that. The second return value lists the shared subnets.
func (m *Map) LinkDisjoint(pathA, pathB []ipv4.Addr) (bool, []*Entry) {
	inA := map[*Entry]bool{}
	for _, a := range pathA {
		if e := m.SubnetOf(a); e != nil {
			inA[e] = true
		}
	}
	var shared []*Entry
	seen := map[*Entry]bool{}
	for _, b := range pathB {
		if e := m.SubnetOf(b); e != nil && inA[e] && !seen[e] {
			shared = append(shared, e)
			seen[e] = true
		}
	}
	return len(shared) == 0, shared
}

// AdjacentSubnets reports subnet pairs observed consecutively on some trace
// path: the subnet-level links of the map.
func (m *Map) AdjacentSubnets() [][2]*Entry {
	seen := map[[2]ipv4.Prefix]bool{}
	var out [][2]*Entry
	for pair := range m.hops {
		ea, eb := m.SubnetOf(pair[0]), m.SubnetOf(pair[1])
		if ea == nil || eb == nil || ea == eb {
			continue
		}
		key := [2]ipv4.Prefix{ea.Prefix, eb.Prefix}
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, [2]*Entry{ea, eb})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0].Prefix.Base() != out[j][0].Prefix.Base() {
			return out[i][0].Prefix.Base() < out[j][0].Prefix.Base()
		}
		return out[i][1].Prefix.Base() < out[j][1].Prefix.Base()
	})
	return out
}

// AnonymousRouter is a placeholder for a router that never answered
// indirect probes, identified by its responding neighbours. Observations
// with the same neighbour pair are merged into one placeholder — the
// neighbour-matching heuristic of anonymous router resolution [8].
type AnonymousRouter struct {
	Prev, Next   ipv4.Addr
	Observations int
}

// AnonymousRouters returns the resolved placeholders, ordered by neighbours.
func (m *Map) AnonymousRouters() []AnonymousRouter {
	out := make([]AnonymousRouter, 0, len(m.anon))
	for pair, n := range m.anon {
		out = append(out, AnonymousRouter{Prev: pair[0], Next: pair[1], Observations: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Prev != out[j].Prev {
			return out[i].Prev < out[j].Prev
		}
		return out[i].Next < out[j].Next
	})
	return out
}

// String renders the map, one subnet per line.
func (m *Map) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "subnet map: %d subnets, %d addresses\n", len(m.entries), m.AddrCount())
	for _, e := range m.entries {
		kind := "lan"
		if e.Prefix.Bits() >= 30 {
			kind = "p2p"
		}
		fmt.Fprintf(&b, "  %-18v %s x%d %v", e.Prefix, kind, e.Observations, e.Addrs)
		if e.Degraded {
			fmt.Fprintf(&b, " [degraded conf=%.2f]", e.Confidence)
		}
		b.WriteByte('\n')
		for _, c := range e.Conflicts {
			fmt.Fprintf(&b, "    conflict: %s\n", c)
		}
	}
	return b.String()
}
