package dace

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/filter"
	"govents/internal/netsim"
	"govents/internal/obvent"
	"govents/internal/routing"
)

func TestCertifiedClassDeliversAfterPartitionHeals(t *testing.T) {
	// Time decoupling under failure: a certified obvent published while
	// the subscriber is unreachable arrives once the partition heals
	// (§3.1.2: the notifiable "will eventually deliver the obvent").
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]

	var got atomic.Int32
	s, err := core.Subscribe(sub.engine, nil, func(q certTrade) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Activate()
	waitAds(t, pub.node, 1)

	net.Partition([]string{"node-0"}, []string{"node-1"})
	_ = core.Publish(pub.engine, certTrade{N: 1})
	time.Sleep(40 * time.Millisecond)
	if got.Load() != 0 {
		t.Fatal("delivery across a partition")
	}

	net.Heal()
	waitFor(t, 10*time.Second, "delivery after heal", func() bool { return got.Load() == 1 })
}

func TestObventGlobalUniquenessAcrossNodes(t *testing.T) {
	// §2.1.2 Obvent Global Uniqueness: notifiables in different address
	// spaces receive distinct clones; mutating one subscriber's copy is
	// never visible to another.
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 3, fastCfg())

	type seen struct {
		mu   sync.Mutex
		vals []string
	}
	var s1, s2 seen
	subOne, err := core.Subscribe(nodes[1].engine, nil, func(q StockQuote) {
		q.Company = "mutated-by-1" // mutate the local clone
		s1.mu.Lock()
		s1.vals = append(s1.vals, q.Company)
		s1.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = subOne.Activate()
	subTwo, err := core.Subscribe(nodes[2].engine, nil, func(q StockQuote) {
		s2.mu.Lock()
		s2.vals = append(s2.vals, q.Company)
		s2.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = subTwo.Activate()
	waitAds(t, nodes[0].node, 2)

	orig := StockQuote{StockObvent{Company: "original"}}
	_ = core.Publish(nodes[0].engine, orig)
	waitFor(t, 5*time.Second, "both deliveries", func() bool {
		s1.mu.Lock()
		n1 := len(s1.vals)
		s1.mu.Unlock()
		s2.mu.Lock()
		n2 := len(s2.vals)
		s2.mu.Unlock()
		return n1 == 1 && n2 == 1
	})
	s2.mu.Lock()
	defer s2.mu.Unlock()
	if s2.vals[0] != "original" {
		t.Fatalf("subscriber 2 observed %q: clones are shared across address spaces", s2.vals[0])
	}
	if orig.Company != "original" {
		t.Fatal("publisher's template mutated")
	}
}

func TestSubscriptionChangedWhileTrafficFlows(t *testing.T) {
	// Activations/deactivations interleaved with publications never
	// crash, deadlock or deliver to inactive subscriptions.
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]

	var active atomic.Bool
	var wrong atomic.Int32
	s, err := core.Subscribe(sub.engine, nil, func(q StockQuote) {
		if !active.Load() {
			wrong.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			active.Store(true)
			if err := s.Activate(); err != nil {
				t.Errorf("activate: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
			// Note: deliveries already queued may still land just
			// after deactivation is requested — the engine's check is
			// at dispatch time. Give in-flight dispatch a beat.
			if err := s.Deactivate(); err != nil {
				t.Errorf("deactivate: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
			active.Store(false)
		}
	}()
	for i := 0; i < 200; i++ {
		_ = core.Publish(pub.engine, StockQuote{StockObvent{Company: "x"}})
		time.Sleep(500 * time.Microsecond)
	}
	<-done
	_ = wrong.Load() // racing deliveries around the edge are tolerated; the test asserts liveness
}

// TestDeliverySetEquivalenceAcrossPlacements is the routing plane's
// transparency property test: under interleaved subscription churn and
// netsim partitions/heals, the exact set of (subscription, event)
// deliveries with publisher-side routing (AtPublisher + routing.Table)
// must equal the subscriber-side baseline — and both must equal the
// locally computed expectation. Filter placement is an optimization,
// never a semantic change.
func TestDeliverySetEquivalenceAcrossPlacements(t *testing.T) {
	type wave struct {
		partitioned bool // published while {0,1} | {2,3} are split
	}
	quote := obvent.TypeName(obvent.TypeOf[StockQuote]())
	run := func(placement Placement) map[string]bool {
		net := netsim.New(netsim.Config{Seed: 21})
		defer net.Close()
		cfg := fastCfg()
		cfg.Placement = placement
		nodes := newDomain(t, net, 4, cfg)
		pub := nodes[0]
		rng := rand.New(rand.NewSource(1234))

		var mu sync.Mutex
		got := make(map[string]bool) // "label@event"
		type subState struct {
			label  string
			node   int
			sub    *core.Subscription
			pred   func(StockQuote) bool
			active bool
		}
		var subs []*subState
		for n := 1; n <= 3; n++ {
			for j := 0; j < 4; j++ {
				st := &subState{label: fmt.Sprintf("n%d-s%d", n, j), node: n}
				var f *filter.Expr
				switch j % 3 {
				case 0:
					th := float64(rng.Intn(900) + 50)
					f = filter.Path("GetPrice").Lt(filter.Float(th))
					st.pred = func(q StockQuote) bool { return q.Price < th }
				case 1: // filterless
					st.pred = func(StockQuote) bool { return true }
				default:
					th := float64(rng.Intn(900) + 50)
					f = filter.Or(
						filter.Path("GetPrice").Ge(filter.Float(th)),
						filter.Path("GetCompany").Contains(filter.Str("Tel")),
					)
					st.pred = func(q StockQuote) bool {
						return q.Price >= th || strings.Contains(q.Company, "Tel")
					}
				}
				label := st.label
				s, err := core.Subscribe(nodes[n].engine, f, func(q StockQuote) {
					mu.Lock()
					got[label+"@"+q.Company] = true
					mu.Unlock()
				})
				if err != nil {
					t.Fatal(err)
				}
				st.sub = s
				subs = append(subs, st)
			}
		}

		expected := make(map[string]bool)
		inbound := make(map[int]uint64) // envelopes routed to each subscriber node
		waves := []wave{{false}, {true}, {false}, {true}, {false}}
		for w, cfgW := range waves {
			// Churn while fully connected: toggle a random subset.
			for _, st := range subs {
				if rng.Intn(2) == 0 {
					continue
				}
				if st.active {
					if err := st.sub.Deactivate(); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := st.sub.Activate(); err != nil {
						t.Fatal(err)
					}
				}
				st.active = !st.active
			}
			// Converge: the publisher must know exactly the active set
			// before the wave, so routing decisions are deterministic. A
			// count alone is not enough: a removal still in flight can
			// balance an addition already applied.
			want := make(map[string]bool)
			for _, st := range subs {
				if st.active {
					want[fmt.Sprintf("node-%d/%s", st.node, st.sub.ID())] = true
				}
			}
			waitFor(t, 10*time.Second, fmt.Sprintf("wave %d ad convergence", w), func() bool {
				known := make(map[string]bool)
				pub.node.routes.ForEachConforming(quote, func(node string, info core.SubscriptionInfo) {
					known[node+"/"+info.ID] = true
				})
				return maps.Equal(known, want)
			})
			net.Settle()

			if cfgW.partitioned {
				net.Partition([]string{"node-0", "node-1"}, []string{"node-2", "node-3"})
			}
			waveExpected := make(map[string]bool)
			for e := 0; e < 6; e++ {
				q := StockQuote{StockObvent{
					Company: fmt.Sprintf("w%d-e%d-%s", w, e, []string{"Telco", "Acme"}[rng.Intn(2)]),
					Price:   float64(rng.Intn(1000)),
					Amount:  1 + rng.Intn(5),
				}}
				if err := core.Publish(pub.engine, q); err != nil {
					t.Fatal(err)
				}
				routed := make(map[int]bool)
				for _, st := range subs {
					if !st.active || (cfgW.partitioned && st.node != 1) {
						continue // unreachable: best-effort events are lost
					}
					if placement == AtSubscriber || st.pred(q) {
						routed[st.node] = true
					}
					if st.pred(q) {
						waveExpected[st.label+"@"+q.Company] = true
					}
				}
				for n := range routed {
					inbound[n]++
				}
			}
			waitFor(t, 10*time.Second, fmt.Sprintf("wave %d deliveries", w), func() bool {
				mu.Lock()
				defer mu.Unlock()
				for k := range waveExpected {
					if !got[k] {
						return false
					}
				}
				return true
			})
			for k := range waveExpected {
				expected[k] = true
			}
			// Quiesce: every envelope routed to a subscriber must have
			// entered its dispatch before the next churn, or a
			// subscription activated then could receive it.
			waitFor(t, 10*time.Second, fmt.Sprintf("wave %d dispatch", w), func() bool {
				for n, want := range inbound {
					if nodes[n].engine.Stats().EventsIn < want {
						return false
					}
				}
				return true
			})
			if cfgW.partitioned {
				net.Heal()
			}
			net.Settle()
		}

		mu.Lock()
		defer mu.Unlock()
		if len(got) != len(expected) {
			for k := range got {
				if !expected[k] {
					t.Errorf("placement %v: unexpected delivery %s", placement, k)
				}
			}
			for k := range expected {
				if !got[k] {
					t.Errorf("placement %v: missing delivery %s", placement, k)
				}
			}
		}
		out := make(map[string]bool, len(got))
		for k := range got {
			out[k] = true
		}
		return out
	}

	atSub := run(AtSubscriber)
	atPub := run(AtPublisher)
	if len(atSub) == 0 {
		t.Fatal("baseline run delivered nothing; workload broken")
	}
	for k := range atSub {
		if !atPub[k] {
			t.Errorf("delivered at-subscriber but not at-publisher: %s", k)
		}
	}
	for k := range atPub {
		if !atSub[k] {
			t.Errorf("delivered at-publisher but not at-subscriber: %s", k)
		}
	}
}

// TestIncrementalControlPlaneEquivalence is the delta control plane's
// property test. A subscriber churns randomly through Activate,
// ActivateDurable and Deactivate and finally closes its engine. At
// every quiescent point, the state each layer maintains change by
// change must equal a from-scratch build: the subscriber's dispatch
// table (core.Engine.CheckDispatchTable) and the publisher's routing
// entry for the subscriber (compared with a fresh routing.Table fed one
// snapshot of the active set, record by record and by the destinations
// it routes to). The deliveries of events published between churn
// rounds must equal the expectation and a WithNaiveDispatch run of the
// same schedule.
func TestIncrementalControlPlaneEquivalence(t *testing.T) {
	quote := obvent.TypeName(obvent.TypeOf[StockQuote]())
	stock := obvent.TypeName(obvent.TypeOf[StockObvent]())
	// entryOf lists the subscriptions a routing table holds for node,
	// sorted by ID. Every subscription of the test targets StockQuote or
	// its supertype StockObvent, so the StockQuote class sees them all.
	entryOf := func(tb *routing.Table, node string) []core.SubscriptionInfo {
		var out []core.SubscriptionInfo
		tb.ForEachConforming(quote, func(n string, info core.SubscriptionInfo) {
			if n == node {
				out = append(out, info)
			}
		})
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	sameEntry := func(a, b []core.SubscriptionInfo) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].TypeName != b[i].TypeName || a[i].DurableID != b[i].DurableID ||
				a[i].Certified != b[i].Certified || !bytes.Equal(a[i].Filter, b[i].Filter) {
				return false
			}
		}
		return true
	}

	run := func(opts ...core.Option) map[string]bool {
		net := netsim.New(netsim.Config{Seed: 5})
		defer net.Close()
		cfg := fastCfg()
		cfg.Placement = AtPublisher // deliveries depend on the publisher's routing entry
		nodes := newDomain(t, net, 2, cfg, opts...)
		pub, sub := nodes[0], nodes[1]
		subAddr := sub.node.Addr()
		rng := rand.New(rand.NewSource(77))

		var mu sync.Mutex
		got := make(map[string]bool) // "label@event"
		record := func(label, company string) {
			mu.Lock()
			got[label+"@"+company] = true
			mu.Unlock()
		}
		type subState struct {
			label   string
			sub     *core.Subscription
			filter  []byte
			pred    func(StockObvent) bool
			durable string // durable identity of the current activation
			active  bool
		}
		var subs []*subState
		for i := 0; i < 40; i++ {
			st := &subState{label: fmt.Sprintf("s%02d", i)}
			var f *filter.Expr
			th := float64(100 * (1 + rng.Intn(9))) // few distinct thresholds: duplicate filters
			switch i % 4 {
			case 0:
				st.pred = func(StockObvent) bool { return true }
			case 1, 2:
				f = filter.Path("GetPrice").Lt(filter.Float(th))
				st.pred = func(q StockObvent) bool { return q.Price < th }
			default:
				f = filter.Or(filter.Path("GetPrice").Ge(filter.Float(th)),
					filter.Path("GetCompany").Contains(filter.Str("Tel")))
				st.pred = func(q StockObvent) bool { return q.Price >= th || strings.Contains(q.Company, "Tel") }
			}
			if f != nil {
				b, err := filter.MarshalCanonical(f)
				if err != nil {
					t.Fatal(err)
				}
				st.filter = b
			}
			label := st.label
			var s *core.Subscription
			var err error
			if i%3 == 0 {
				s, err = core.Subscribe(sub.engine, f, func(q StockObvent) { record(label, q.Company) })
			} else {
				s, err = core.Subscribe(sub.engine, f, func(q StockQuote) { record(label, q.Company) })
			}
			if err != nil {
				t.Fatal(err)
			}
			st.sub = s
			subs = append(subs, st)
		}

		// check waits for the publisher to learn the subscriber's active
		// set, then compares every incrementally maintained layer with
		// its from-scratch counterpart.
		check := func(when string) {
			t.Helper()
			var want []core.SubscriptionInfo
			for _, st := range subs {
				if st.active {
					want = append(want, core.SubscriptionInfo{
						ID: st.sub.ID(), TypeName: st.sub.TypeName(), Filter: st.filter, DurableID: st.durable,
					})
				}
			}
			sort.Slice(want, func(i, j int) bool { return want[i].ID < want[j].ID })
			waitFor(t, 10*time.Second, when+": publisher learns the active set", func() bool {
				return sameEntry(entryOf(pub.node.routes, subAddr), want)
			})
			if err := sub.engine.CheckDispatchTable(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			fresh := routing.NewTable(pub.node.Registry())
			fresh.ApplySnapshot(subAddr, 1, want)
			if e := entryOf(fresh, subAddr); !sameEntry(e, want) {
				t.Fatalf("%s: fresh table holds %v, want %v", when, e, want)
			}
			for _, price := range []float64{50, 150, 450, 850, 950} {
				for _, company := range []string{"Telco", "Acme"} {
					q := StockQuote{StockObvent{Company: company, Price: price}}
					for _, class := range []string{quote, stock} {
						dec := func() any { return q }
						if class == stock {
							dec = func() any { return q.StockObvent }
						}
						g := pub.node.routes.Destinations(class, dec, nil)
						w := fresh.Destinations(class, dec, nil)
						if !slices.Equal(g, w) {
							t.Fatalf("%s: %s %s@%v routes to %v, fresh table to %v", when, class, company, price, g, w)
						}
					}
				}
			}
		}

		expected := make(map[string]bool)
		for round := 0; round < 6; round++ {
			for k := 0; k < 25; k++ {
				st := subs[rng.Intn(len(subs))]
				var err error
				switch {
				case st.active:
					err = st.sub.Deactivate()
					st.durable = ""
				case rng.Intn(3) == 0:
					st.durable = fmt.Sprintf("dur-%s-%d", st.label, round)
					err = st.sub.ActivateDurable(st.durable)
				default:
					err = st.sub.Activate()
				}
				if err != nil {
					t.Fatal(err)
				}
				st.active = !st.active
			}
			check(fmt.Sprintf("round %d", round))

			waveExpected := make(map[string]bool)
			for e := 0; e < 8; e++ {
				base := StockObvent{
					Company: fmt.Sprintf("r%d-e%d-%s", round, e, []string{"Telco", "Acme"}[rng.Intn(2)]),
					Price:   float64(rng.Intn(1000)),
				}
				var err error
				quoteEvent := e%4 != 3
				if quoteEvent {
					err = core.Publish(pub.engine, StockQuote{base})
				} else {
					err = core.Publish(pub.engine, base)
				}
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range subs {
					quoteSub := i%3 != 0
					if st.active && st.pred(base) && (quoteEvent || !quoteSub) {
						waveExpected[st.label+"@"+base.Company] = true
					}
				}
			}
			waitFor(t, 10*time.Second, fmt.Sprintf("round %d deliveries", round), func() bool {
				mu.Lock()
				defer mu.Unlock()
				for k := range waveExpected {
					if !got[k] {
						return false
					}
				}
				return true
			})
			for k := range waveExpected {
				expected[k] = true
			}
		}

		if err := sub.engine.Close(); err != nil {
			t.Fatal(err)
		}
		for _, st := range subs {
			st.active = false
		}
		check("after Close")

		net.Settle()
		mu.Lock()
		defer mu.Unlock()
		for k := range got {
			if !expected[k] {
				t.Errorf("unexpected delivery %s", k)
			}
		}
		out := make(map[string]bool, len(got))
		for k := range got {
			out[k] = true
		}
		return out
	}

	indexed := run()
	naive := run(core.WithNaiveDispatch())
	if len(indexed) == 0 {
		t.Fatal("indexed run delivered nothing; workload broken")
	}
	for k := range indexed {
		if !naive[k] {
			t.Errorf("delivered by the indexed dispatch only: %s", k)
		}
	}
	for k := range naive {
		if !indexed[k] {
			t.Errorf("delivered by the naive dispatch only: %s", k)
		}
	}
}
