package main

import (
	"sync"

	"govents/workload"
)

// event is one published obvent as the generator issued it. Its
// sequence number (carried in the quote's Amount) is its index in the
// event table plus one.
type event struct {
	company string
	price   float64
	// due is when the schedule wanted the event published (open loop)
	// or when it was sent (closed loop); start and end bracket the
	// Publish call.
	due, start, end int64
	pubErr          bool
}

func (e event) quote() workload.StockQuote {
	return workload.StockQuote{StockObvent: workload.StockObvent{Company: e.company, Price: e.price}}
}

// delivery is one handler entry: which event arrived, when, and the
// price the handler saw (to catch a corrupted payload).
type delivery struct {
	seq   int64
	at    int64
	price float64
	// match records InterestSpec.Matches on the delivered payload,
	// evaluated in the handler against the receiving subscription.
	match bool
}

// subLog records the deliveries of one subscription in handler-entry
// order. A nil spec is a filterless subscription.
type subLog struct {
	spec *workload.InterestSpec

	mu   sync.Mutex
	recs []delivery
}

func (l *subLog) matches(q workload.StockQuote) bool {
	return l.spec == nil || l.spec.Matches(q)
}

func (l *subLog) record(seq, at int64, q workload.StockQuote) {
	d := delivery{seq: seq, at: at, price: q.Price, match: l.matches(q)}
	l.mu.Lock()
	l.recs = append(l.recs, d)
	l.mu.Unlock()
}

func (l *subLog) deliveries() []delivery {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs
}

// verdict is the oracle's finding over one run.
type verdict struct {
	missing, duplicate, misfiltered, reordered int
	// failed marks, per event (index seq-1), whether any delivery of
	// it went wrong or its Publish failed.
	failed []bool
}

func (v verdict) violations() int { return v.misfiltered + v.reordered }

func (v verdict) failedEvents() int {
	n := 0
	for _, f := range v.failed {
		if f {
			n++
		}
	}
	return n
}

// check holds every delivery against the published events. Standing
// subscriptions were active for the whole stream, so each must receive
// exactly the events its interest matches, once each, and — when fifo
// is set — in publisher order. Transient (churn) subscriptions were
// active for part of it, so only their duplicates and filter
// violations are decidable.
func check(events []event, standing, transient []*subLog, fifo bool) verdict {
	v := verdict{failed: make([]bool, len(events))}
	for i, e := range events {
		if e.pubErr {
			v.failed[i] = true
		}
	}
	count := make([]uint8, len(events)+1)
	scan := func(l *subLog, wantAll bool) {
		clear(count)
		var last int64
		for _, d := range l.deliveries() {
			if d.seq < 1 || d.seq > int64(len(events)) {
				v.misfiltered++ // not an event this run published
				continue
			}
			e := events[d.seq-1]
			bad := false
			if !d.match || d.price != e.price || !l.matches(e.quote()) {
				v.misfiltered++
				bad = true
			}
			if count[d.seq] < 255 {
				count[d.seq]++
			}
			if count[d.seq] == 2 {
				v.duplicate++
				bad = true
			}
			if fifo && d.seq < last {
				v.reordered++
				bad = true
			}
			last = max(last, d.seq)
			if bad {
				v.failed[d.seq-1] = true
			}
		}
		if !wantAll {
			return
		}
		for i, e := range events {
			if !e.pubErr && count[i+1] == 0 && l.matches(e.quote()) {
				v.missing++
				v.failed[i] = true
			}
		}
	}
	for _, l := range standing {
		scan(l, true)
	}
	for _, l := range transient {
		scan(l, false)
	}
	return v
}
