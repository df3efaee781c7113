package core

import (
	"math/rand"
	"sync"
	"testing"
)

// countingDiss is a loopback Disseminator that records every
// subscription change the engine reports.
type countingDiss struct {
	*Local
	mu      sync.Mutex
	calls   int
	active  map[string]SubscriptionInfo
	removed int
}

func newCountingDiss() *countingDiss {
	return &countingDiss{Local: NewLocal(), active: make(map[string]SubscriptionInfo)}
}

func (d *countingDiss) SubscriptionChanged(added []SubscriptionInfo, removed []string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.calls++
	for _, id := range removed {
		delete(d.active, id)
	}
	d.removed += len(removed)
	for _, info := range added {
		d.active[info.ID] = info
	}
	return nil
}

func (d *countingDiss) snapshot() (calls, removed, active int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.calls, d.removed, len(d.active)
}

// TestCloseRetiresSubscriptionsAsOneChange pins Close's batch path:
// closing an engine with many active subscriptions reports them to the
// substrate as one removal delta, not one change per subscription.
func TestCloseRetiresSubscriptionsAsOneChange(t *testing.T) {
	const n = 2000
	d := newCountingDiss()
	e := NewEngine("close", d)
	for i := 0; i < n; i++ {
		s, err := Subscribe(e, nil, func(StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.CheckDispatchTable(); err != nil {
		t.Fatal(err)
	}
	before, _, _ := d.snapshot()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	calls, removed, active := d.snapshot()
	if got := calls - before; got > 1 {
		t.Errorf("Close made %d SubscriptionChanged calls, want at most 1", got)
	}
	if removed != n || active != 0 {
		t.Errorf("after Close: %d removed, %d still active; want %d removed, 0 active", removed, active, n)
	}
	if err := e.CheckDispatchTable(); err != nil {
		t.Error(err)
	}
}

// TestDerivedDispatchTableMatchesRebuild churns subscriptions across
// several target types from concurrent goroutines and checks that the
// change-by-change table equals a from-scratch rebuild, and that the
// substrate's delta-maintained set equals the active set.
func TestDerivedDispatchTableMatchesRebuild(t *testing.T) {
	d := newCountingDiss()
	e := NewEngine("derive", d)
	defer e.Close()
	var subs []*Subscription
	for i := 0; i < 600; i++ { // groups of ~200: runs split and merge away
		var s *Subscription
		var err error
		switch i % 3 {
		case 0:
			s, err = Subscribe(e, nil, func(StockQuote) {})
		case 1:
			s, err = Subscribe(e, nil, func(StockObvent) {})
		default:
			s, err = Subscribe(e, nil, func(Priced) {})
		}
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for k := 0; k < 1500; k++ {
				s := subs[rng.Intn(len(subs))]
				if rng.Intn(2) == 0 {
					_ = s.Activate() // may race another worker: already-active is fine
				} else {
					_ = s.Deactivate()
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if err := e.CheckDispatchTable(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, s := range subs {
		if s.Active() {
			want++
		}
	}
	if _, _, active := d.snapshot(); active != want {
		t.Errorf("substrate holds %d active subscriptions, engine %d", active, want)
	}
}
