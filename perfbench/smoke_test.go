package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
	"time"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// smoke test holds the reported metrics against.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// requires a correct run that reports exactly the metrics BENCHMARK.json
// lists, with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("opens loopback TCP Domains")
	}
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var known []string
	for name := range workloads {
		known = append(known, name)
	}
	sort.Strings(names)
	sort.Strings(known)
	if len(names) != len(known) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, known)
	}
	for _, name := range names {
		w, ok := workloads[name]
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q unknown", name)
		}
		w.interests = 20
		w.rate /= 4
		for _, traced := range []bool{false, true} {
			want := f.EndToEnd
			if traced {
				want = f.PerLayer
			}
			res, err := execute(w, 3, time.Second, traced, plan{warmup: 200 * time.Millisecond, probe: 200 * time.Millisecond})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d %s",
					name, traced, res.correct, res.attempted, res.failed, res.detail)
			}
			got := make(map[string]string)
			for _, m := range res.metrics {
				if !m.shown {
					got[m.name] = m.unit
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(got), len(want))
			}
			for _, m := range want {
				if unit, ok := got[m.Name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s reported with unit %q, want %q", name, traced, m.Name, unit, m.Unit)
				}
			}
		}
	}
}
