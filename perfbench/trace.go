package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// clock is the benchmark's single monotonic time base. Every timestamp
// the benchmark keeps — schedule due times, publish calls, handler
// entries, spans — is nanoseconds since base, so they subtract exactly.
type clock struct{ base time.Time }

func newClock() clock { return clock{base: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spanLate       spanKind = iota // schedule due time → Publish call (open loop)
	spanPublish                    // Domain.Publish
	spanSend                       // Transport.Send
	spanRecv                       // inbound Transport handler
	spanHandler                    // subscription handler
	spanOpen                       // govents.Open
	spanSubscribe                  // govents.Subscribe (activation included)
	spanDeactivate                 // Subscription.Deactivate
	spanClose                      // Domain.Close
)

// span is one timed call across a layer boundary. Spans of one event
// share its sequence number; seq 0 belongs to no event. parent is the
// id of the enclosing span, or 0.
type span struct {
	id, parent int64
	kind       spanKind
	seq        int64
	start, end int64
}

func (s span) dur() int64 { return s.end - s.start }

// side is the Domain a span's call went to: a transport send becomes
// the child of the parent span open on its side.
type side uint8

const (
	pubSide side = iota
	subSide
)

// openScope is a span in progress that transport sends on the same
// side attach to as children.
type openScope struct {
	id, seq int64
	side    side
}

// tracer keeps spans in memory until the run ends. A nil *tracer, or
// one switched off, records nothing.
type tracer struct {
	clk    clock
	on     atomic.Bool
	nextID atomic.Int64
	nOpen  [2]atomic.Int32 // open scopes per side

	mu     sync.Mutex
	spans  []span
	scopes []openScope
}

func newTracer(clk clock) *tracer {
	return &tracer{clk: clk, spans: make([]span, 0, 1<<16)}
}

// set switches recording on or off.
func (t *tracer) set(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) active() bool { return t != nil && t.on.Load() }

// begin opens a parent span for a call into sd's Domain; sends on sd
// before end are its children and share its event seq. It returns the
// span id, 0 when tracing is off.
func (t *tracer) begin(sd side, seq int64) int64 {
	if !t.active() {
		return 0
	}
	id := t.nextID.Add(1)
	t.nOpen[sd].Add(1)
	t.mu.Lock()
	t.scopes = append(t.scopes, openScope{id: id, seq: seq, side: sd})
	t.mu.Unlock()
	return id
}

// end closes the parent span opened by begin and records it.
func (t *tracer) end(id int64, kind spanKind, seq, start, end int64) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	for i, sc := range t.scopes {
		if sc.id == id {
			t.scopes = append(t.scopes[:i], t.scopes[i+1:]...)
			t.nOpen[sc.side].Add(-1)
			break
		}
	}
	t.spans = append(t.spans, span{id: id, kind: kind, seq: seq, start: start, end: end})
	t.mu.Unlock()
}

// leaf records a span that has no children and no parent.
func (t *tracer) leaf(kind spanKind, seq, start, end int64) {
	if !t.active() {
		return
	}
	id := t.nextID.Add(1)
	t.mu.Lock()
	t.spans = append(t.spans, span{id: id, kind: kind, seq: seq, start: start, end: end})
	t.mu.Unlock()
}

// send records a transport send on sd, as a child of the latest span
// open on that side, if any. Goroutines are not told apart: a send the
// Domain makes from another goroutine meanwhile (a retransmission, an
// acknowledgement) counts as the parent's child too, so self times are
// lower bounds.
func (t *tracer) send(sd side, start, end int64) {
	if !t.active() {
		return
	}
	id := t.nextID.Add(1)
	s := span{id: id, kind: spanSend, start: start, end: end}
	open := t.nOpen[sd].Load() > 0
	t.mu.Lock()
	for i := len(t.scopes) - 1; open && i >= 0; i-- {
		if sc := t.scopes[i]; sc.side == sd {
			s.parent, s.seq = sc.id, sc.seq
			break
		}
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// recorded returns the spans recorded so far.
func (t *tracer) recorded() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its direct children cover. Overlapping children
// are counted once, and a child's time outside its parent is ignored.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		out[s.id] = s.dur() - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, parent.start), min(k.end, parent.end)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}
