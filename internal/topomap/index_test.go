package topomap

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"tracenet/internal/core"
	"tracenet/internal/ipv4"
)

// linearMap is the reference merge the indexed Map must reproduce: every
// observation scans all existing entries for overlaps, absorbs them into the
// lowest (by base, then prefix length), and re-sorts the member union. It
// keeps entries keyed by prefix and resolves addresses by a full scan.
type linearMap struct {
	subnets      map[ipv4.Prefix]*Entry
	addrToPrefix map[ipv4.Addr]ipv4.Prefix
	hops         map[[2]ipv4.Addr]bool
}

func newLinearMap() *linearMap {
	return &linearMap{
		subnets:      map[ipv4.Prefix]*Entry{},
		addrToPrefix: map[ipv4.Addr]ipv4.Prefix{},
		hops:         map[[2]ipv4.Addr]bool{},
	}
}

func (m *linearMap) addSession(res *core.Result) {
	for _, s := range res.Subnets {
		if s.Prefix.Bits() < 32 {
			m.addSubnet(s)
		}
	}
	var prev ipv4.Addr
	for _, h := range res.Hops {
		if !prev.IsZero() && !h.Anonymous() {
			m.hops[[2]ipv4.Addr{prev, h.Addr}] = true
		}
		prev = h.Addr
	}
}

func (m *linearMap) addSubnet(s *core.Subnet) {
	var overlapping []*Entry
	for _, cand := range m.subnets {
		if cand.Prefix.Overlaps(s.Prefix) {
			overlapping = append(overlapping, cand)
		}
	}
	sort.Slice(overlapping, func(i, j int) bool {
		if overlapping[i].Prefix.Base() != overlapping[j].Prefix.Base() {
			return overlapping[i].Prefix.Base() < overlapping[j].Prefix.Base()
		}
		return overlapping[i].Prefix.Bits() < overlapping[j].Prefix.Bits()
	})
	if len(overlapping) == 0 {
		e := &Entry{Prefix: s.Prefix, Confidence: 1}
		m.subnets[e.Prefix] = e
		m.mergeObservation(e, s)
		return
	}
	e := overlapping[0]
	for _, o := range overlapping[1:] {
		delete(m.subnets, o.Prefix)
		e.addConflict(e.Prefix, o.Prefix)
		for _, c := range o.Conflicts {
			e.addNote(c)
		}
		e.Addrs = append(e.Addrs, o.Addrs...)
		e.Observations += o.Observations
		e.OnPath = e.OnPath || o.OnPath
		e.Degraded = e.Degraded || o.Degraded
		if o.Confidence < e.Confidence {
			e.Confidence = o.Confidence
		}
	}
	if s.Prefix != e.Prefix {
		e.addConflict(e.Prefix, s.Prefix)
	}
	if s.Prefix.Bits() < e.Prefix.Bits() {
		delete(m.subnets, e.Prefix)
		e.Prefix = s.Prefix
	}
	m.subnets[e.Prefix] = e
	m.mergeObservation(e, s)
}

func (m *linearMap) mergeObservation(e *Entry, s *core.Subnet) {
	have := map[ipv4.Addr]bool{}
	deduped := e.Addrs[:0]
	for _, a := range e.Addrs {
		if !have[a] {
			deduped = append(deduped, a)
			have[a] = true
		}
	}
	e.Addrs = deduped
	for _, a := range s.Addrs {
		if !have[a] {
			e.Addrs = append(e.Addrs, a)
			have[a] = true
		}
	}
	sort.Slice(e.Addrs, func(i, j int) bool { return e.Addrs[i] < e.Addrs[j] })
	for _, a := range e.Addrs {
		m.addrToPrefix[a] = e.Prefix
	}
	e.Observations++
	e.OnPath = e.OnPath || s.OnPath
	e.Degraded = e.Degraded || s.Degraded
	if conf := s.Confidence; conf > 0 && conf < e.Confidence {
		e.Confidence = conf
	}
}

func (m *linearMap) subnetOf(addr ipv4.Addr) *Entry {
	if p, ok := m.addrToPrefix[addr]; ok {
		return m.subnets[p]
	}
	for p, e := range m.subnets {
		if p.Contains(addr) {
			return e
		}
	}
	return nil
}

// entries returns the reference entries in base order.
func (m *linearMap) entries() []*Entry {
	var out []*Entry
	for _, e := range m.subnets {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Prefix.Base() < out[j].Prefix.Base() })
	return out
}

// adjacent renders the reference subnet links, sorted.
func (m *linearMap) adjacent() []string {
	seen := map[string]bool{}
	var out []string
	for pair := range m.hops {
		ea, eb := m.subnetOf(pair[0]), m.subnetOf(pair[1])
		if ea == nil || eb == nil || ea == eb {
			continue
		}
		if link := fmt.Sprintf("%v <-> %v", ea.Prefix, eb.Prefix); !seen[link] {
			seen[link] = true
			out = append(out, link)
		}
	}
	sort.Strings(out)
	return out
}

// String renders the reference entries through Map.String.
func (m *linearMap) String() string {
	rendered := &Map{entries: m.entries(), addrEntry: map[ipv4.Addr]*Entry{}}
	for a, p := range m.addrToPrefix {
		rendered.addrEntry[a] = m.subnets[p]
	}
	return rendered.String()
}

// randomObservation draws an observation over a small address space so that
// nested, overlapping, and duplicate prefixes are common. Members mostly lie
// inside the prefix; a few stray outside it, and lists may arrive unsorted
// and with repeats.
func randomObservation(rng *rand.Rand) *core.Subnet {
	const space = 0x0a000000 // 10.0.0.0/22
	bits := 21 + rng.Intn(12)
	p := ipv4.NewPrefix(ipv4.Addr(space+rng.Intn(1024)), bits)
	s := &core.Subnet{
		Prefix:     p,
		OnPath:     rng.Intn(2) == 0,
		Degraded:   rng.Intn(8) == 0,
		Confidence: []float64{0, 0.25, 0.75, 1}[rng.Intn(4)],
	}
	for n := rng.Intn(6); n > 0; n-- {
		a := p.Base() + ipv4.Addr(rng.Int63n(int64(p.Size())))
		if rng.Intn(10) == 0 {
			a = ipv4.Addr(space + rng.Intn(1024))
		}
		s.Addrs = append(s.Addrs, a)
	}
	if rng.Intn(3) > 0 {
		sort.Slice(s.Addrs, func(i, j int) bool { return s.Addrs[i] < s.Addrs[j] })
	}
	return s
}

// TestIndexedMergeMatchesLinearScan feeds random sequences of nested,
// overlapping, and duplicate prefixes to the indexed map and to the linear
// reference, and requires identical renderings, entries, conflicts, address
// resolution, and subnet links after every session.
func TestIndexedMergeMatchesLinearScan(t *testing.T) {
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := New(), newLinearMap()
		var seen []ipv4.Addr
		for session := 0; session < 30; session++ {
			res := &core.Result{}
			for n := 1 + rng.Intn(4); n > 0; n-- {
				res.Subnets = append(res.Subnets, randomObservation(rng))
			}
			for n := rng.Intn(6); n > 0; n-- {
				var a ipv4.Addr
				if rng.Intn(5) > 0 {
					a = ipv4.Addr(0x0a000000 + rng.Intn(1024))
				}
				res.Hops = append(res.Hops, core.Hop{Addr: a})
			}
			m.AddSession(res)
			ref.addSession(res)
			for _, s := range res.Subnets {
				seen = append(seen, s.Addrs...)
			}

			where := fmt.Sprintf("seed %d session %d", seed, session)
			checkDisjoint(t, m, where)
			if got, want := m.String(), ref.String(); got != want {
				t.Fatalf("%s: String differs\n--- indexed\n%s--- linear\n%s", where, got, want)
			}
			got, want := m.Subnets(), ref.entries()
			if len(got) != len(want) {
				t.Fatalf("%s: %d entries, want %d", where, len(got), len(want))
			}
			for i := range got {
				if g, w := fmt.Sprintf("%+v", *got[i]), fmt.Sprintf("%+v", *want[i]); g != w {
					t.Fatalf("%s: entry %d = %s, want %s", where, i, g, w)
				}
			}
			// Every member ever observed, plus addresses that only fall
			// inside (or outside) some prefix.
			probe := append([]ipv4.Addr(nil), seen...)
			for i := 0; i < 64; i++ {
				probe = append(probe, ipv4.Addr(0x0a000000+rng.Intn(1200)))
			}
			for _, a := range probe {
				g, w := m.SubnetOf(a), ref.subnetOf(a)
				if (g == nil) != (w == nil) || (g != nil && g.Prefix != w.Prefix) {
					t.Fatalf("%s: SubnetOf(%v) = %v, want %v", where, a, g, w)
				}
			}
			var links []string
			for _, l := range m.AdjacentSubnets() {
				links = append(links, fmt.Sprintf("%v <-> %v", l[0].Prefix, l[1].Prefix))
			}
			sort.Strings(links)
			if g, w := fmt.Sprint(links), fmt.Sprint(ref.adjacent()); g != w {
				t.Fatalf("%s: AdjacentSubnets = %s, want %s", where, g, w)
			}
		}
	}
}

// checkDisjoint asserts the index invariant: entries ordered by base and
// pairwise disjoint.
func checkDisjoint(t *testing.T, m *Map, where string) {
	t.Helper()
	for i := 1; i < len(m.entries); i++ {
		a, b := m.entries[i-1].Prefix, m.entries[i].Prefix
		if a.Base() >= b.Base() || a.Overlaps(b) {
			t.Fatalf("%s: entries %v and %v out of order or overlapping", where, a, b)
		}
	}
}
