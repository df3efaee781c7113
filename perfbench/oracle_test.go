package main

import (
	"testing"

	"govents/workload"
)

// oracleEvents are four quotes; the interest below matches #1 and #4.
func oracleEvents() []event {
	return []event{
		{company: "A", price: 50},
		{company: "B", price: 50},
		{company: "A", price: 150},
		{company: "A", price: 10},
	}
}

func logOf(spec *workload.InterestSpec, events []event, seqs ...int64) *subLog {
	l := &subLog{spec: spec}
	for i, seq := range seqs {
		l.record(seq, int64(i), events[seq-1].quote())
	}
	return l
}

func TestOracleFlagsEachFault(t *testing.T) {
	spec := &workload.InterestSpec{Company: "A", MaxPrice: 100}
	events := oracleEvents()
	cases := []struct {
		name string
		seqs []int64
		fifo bool
		want verdict
	}{
		{"clean", []int64{1, 4}, true, verdict{}},
		{"missing", []int64{1}, false, verdict{missing: 1}},
		{"duplicate", []int64{1, 4, 1}, false, verdict{duplicate: 1}},
		{"misfiltered", []int64{1, 2, 4}, false, verdict{misfiltered: 1}},
		{"reordered", []int64{4, 1}, true, verdict{reordered: 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			v := check(events, []*subLog{logOf(spec, events, c.seqs...)}, nil, c.fifo)
			if v.missing != c.want.missing || v.duplicate != c.want.duplicate ||
				v.misfiltered != c.want.misfiltered || v.reordered != c.want.reordered {
				t.Fatalf("verdict %+v, want %+v", v, c.want)
			}
			wantFailed := c.name != "clean"
			if (v.failedEvents() > 0) != wantFailed {
				t.Fatalf("failed events %d, want failures: %v", v.failedEvents(), wantFailed)
			}
		})
	}
}

func TestOracleCatchesCorruptPayload(t *testing.T) {
	spec := &workload.InterestSpec{Company: "A", MaxPrice: 100}
	events := oracleEvents()
	l := &subLog{spec: spec}
	l.record(1, 0, events[0].quote())
	bad := events[3].quote()
	bad.Price = 11 // still passes the filter, but is not what #4 carried
	l.record(4, 1, bad)
	if v := check(events, []*subLog{l}, nil, false); v.misfiltered != 1 {
		t.Fatalf("corrupt payload not flagged: %+v", v)
	}
}

func TestOracleTransientSubscriptions(t *testing.T) {
	spec := &workload.InterestSpec{Company: "A", MaxPrice: 100}
	events := oracleEvents()
	// A transient subscription may miss events, but not see one twice
	// or one its filter rejects.
	if v := check(events, nil, []*subLog{logOf(spec, events, 4)}, false); v.failedEvents() != 0 {
		t.Fatalf("partial transient delivery flagged: %+v", v)
	}
	v := check(events, nil, []*subLog{logOf(spec, events, 4, 4, 3)}, false)
	if v.duplicate != 1 || v.misfiltered != 1 {
		t.Fatalf("transient faults not flagged: %+v", v)
	}
}

func TestOracleFilterlessStream(t *testing.T) {
	events := oracleEvents()
	if v := check(events, []*subLog{logOf(nil, events, 1, 2, 3, 4)}, nil, true); v.failedEvents() != 0 {
		t.Fatalf("in-order stream flagged: %+v", v)
	}
	if v := check(events, []*subLog{logOf(nil, events, 1, 3, 2, 4)}, nil, true); v.reordered != 1 {
		t.Fatalf("reordered stream: %+v", v)
	}
	if v := check(events, []*subLog{logOf(nil, events, 1, 2, 4)}, nil, true); v.missing != 1 {
		t.Fatalf("gap in stream: %+v", v)
	}
}
