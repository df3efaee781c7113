package main

import "testing"

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// publish [0,100] with three sends, two overlapping and one running
	// past its end; the first send has a child of its own, which counts
	// against the send, not against publish.
	spans := []span{
		{id: 1, kind: spanPublish, start: 0, end: 100},
		{id: 2, parent: 1, kind: spanSend, start: 10, end: 30},
		{id: 3, parent: 1, kind: spanSend, start: 20, end: 40},
		{id: 4, parent: 1, kind: spanSend, start: 90, end: 120},
		{id: 5, parent: 2, kind: spanSend, start: 12, end: 15},
		{id: 6, kind: spanRecv, start: 0, end: 7},
	}
	want := map[int64]int64{1: 100 - 30 - 10, 2: 20 - 3, 3: 20, 4: 30, 5: 3, 6: 7}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestTracerAttachesSendsBySide(t *testing.T) {
	tr := newTracer(newClock())
	tr.set(true)
	pub := tr.begin(pubSide, 7)
	tr.send(pubSide, 1, 2)
	tr.send(subSide, 1, 2)
	tr.end(pub, spanPublish, 7, 0, 3)
	tr.send(pubSide, 4, 5)
	tr.set(false)
	tr.send(pubSide, 6, 7)
	spans := tr.recorded()
	if len(spans) != 4 {
		t.Fatalf("recorded %d spans, want 4: %+v", len(spans), spans)
	}
	if s := spans[0]; s.parent != pub || s.seq != 7 {
		t.Errorf("send inside publish: %+v", s)
	}
	if s := spans[1]; s.parent != 0 || s.seq != 0 {
		t.Errorf("send on the other side: %+v", s)
	}
	if s := spans[3]; s.parent != 0 {
		t.Errorf("send after publish ended: %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 0.99: 4.96, 1: 5} {
		if got := quantile(xs, q); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples")
	}
}
