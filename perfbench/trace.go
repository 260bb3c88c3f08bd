package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"tracenet/internal/ipv4"
	"tracenet/internal/netsim"
	"tracenet/internal/probe"
)

// span is one timed interval of a traced run. Times are nanoseconds since the
// run's epoch; parent is the index of the enclosing span, or -1.
type span struct {
	name       string
	parent     int
	start, end int64
}

// spanLog keeps a traced run's spans in memory; write saves them when the
// run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// now is the run clock: nanoseconds since the epoch.
func (l *spanLog) now() int64 { return int64(time.Since(l.epoch)) }

// add records a span and returns its index.
func (l *spanLog) add(name string, parent int, start, end int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, parent: parent, start: start, end: end})
	return len(l.spans) - 1
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children (parallel
// work under one parent) are counted once.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		var covered int64
		cur, curEnd := int64(0), int64(-1)
		for _, k := range kids {
			st, en := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if en <= st {
				continue
			}
			if st > curEnd {
				if curEnd > cur {
					covered += curEnd - cur
				}
				cur, curEnd = st, en
			} else if en > curEnd {
				curEnd = en
			}
		}
		if curEnd > cur {
			covered += curEnd - cur
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// write saves the spans as a Chrome trace-event file (chrome://tracing,
// Perfetto): one complete event per span, its index and parent in args.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, `{"traceEvents":[`)
	for i, s := range l.spans {
		sep := ","
		if i == len(l.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}%s`+"\n",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, sep)
	}
	fmt.Fprintln(w, "]}")
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// exchange is one timed wire exchange of a traced target.
type exchange struct {
	start, end int64
	bytes      int
	silent     bool
}

// targetLink ties one collect Dial to the destination its prober traces.
// Dial carries no destination, so the link learns it from the prober's
// first wire probe: core always sends that probe to the target itself.
type targetLink struct {
	dialAt    int64
	doneAt    int64
	dst       ipv4.Addr
	known     bool
	pr        *probe.Prober
	exchanges []exchange
	replies   [][]byte
}

// repliesPerTarget bounds the reply samples a traced target keeps for the
// wire decode replay.
const repliesPerTarget = 2

// linker links every Dial of a campaign to its target and, on traced runs,
// times each wire exchange through a transport wrapped around the port.
type linker struct {
	clock  func() int64
	traced bool

	mu      sync.Mutex
	byDst   map[ipv4.Addr]*targetLink
	orphans int // targets done without a linked Dial
}

func newLinker(clock func() int64, traced bool) *linker {
	return &linker{clock: clock, traced: traced, byDst: make(map[ipv4.Addr]*targetLink)}
}

// dial builds the prober collect asks for, over a port that reports its
// first probe's destination back to the linker.
func (k *linker) dial(port *netsim.Port, opts probe.Options) *probe.Prober {
	lp := &linkedPort{port: port, k: k, link: &targetLink{dialAt: k.clock()}}
	lp.link.pr = probe.New(lp, port.LocalAddr(), opts)
	return lp.link.pr
}

// learn records the link's destination from a raw IPv4 probe.
func (k *linker) learn(l *targetLink, raw []byte) {
	if len(raw) < 20 {
		return
	}
	l.dst = ipv4.AddrFromOctets([4]byte(raw[16:20]))
	l.known = true
	k.mu.Lock()
	k.byDst[l.dst] = l
	k.mu.Unlock()
}

// done returns and forgets the link of a finished target, or nil when no
// Dial was linked to it.
func (k *linker) done(dst ipv4.Addr) *targetLink {
	k.mu.Lock()
	defer k.mu.Unlock()
	l := k.byDst[dst]
	if l == nil {
		k.orphans++
		return nil
	}
	delete(k.byDst, dst)
	return l
}

// linkedPort is the transport a linked prober uses. It forwards
// ExchangeAppend and Wait to the netsim port, so the prober keeps its
// zero-alloc reply path and the virtual clock advances as without it.
type linkedPort struct {
	port *netsim.Port
	k    *linker
	link *targetLink
}

func (p *linkedPort) Exchange(raw []byte) ([]byte, error) { return p.ExchangeAppend(raw, nil) }

func (p *linkedPort) ExchangeAppend(raw, dst []byte) ([]byte, error) {
	l := p.link
	if !l.known {
		p.k.learn(l, raw)
	}
	if !p.k.traced {
		return p.port.ExchangeAppend(raw, dst)
	}
	start := p.k.clock()
	out, err := p.port.ExchangeAppend(raw, dst)
	end := p.k.clock()
	var reply []byte
	if out != nil {
		reply = out[len(dst):]
	}
	l.exchanges = append(l.exchanges, exchange{start: start, end: end, bytes: len(raw) + len(reply), silent: out == nil})
	if reply != nil && len(l.replies) < repliesPerTarget {
		l.replies = append(l.replies, append([]byte(nil), reply...))
	}
	return out, err
}

func (p *linkedPort) Wait(ticks uint64) { p.port.Wait(ticks) }
