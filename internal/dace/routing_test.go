package dace

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"govents/internal/core"
	"govents/internal/filter"
	"govents/internal/multicast"
	"govents/internal/netsim"
	"govents/internal/obvent"
)

// TestPublisherRoutingOneCompoundEvalPerEvent pins the routing plane's
// core bargain: with Placement AtPublisher, publishing an unordered
// event costs exactly one compound evaluation for its class, no matter
// how many remote subscriptions are advertised.
func TestPublisherRoutingOneCompoundEvalPerEvent(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	cfg := fastCfg()
	cfg.Placement = AtPublisher
	nodes := newDomain(t, net, 3, cfg)
	pub, subA, subB := nodes[0], nodes[1], nodes[2]

	const perNode = 40
	var got atomic.Int32
	for i, sn := range []*testNode{subA, subB} {
		for j := 0; j < perNode; j++ {
			threshold := float64((j + 1) * 25)
			f := filter.Path("GetPrice").Lt(filter.Float(threshold))
			s, err := core.Subscribe(sn.engine, f, func(q StockQuote) { got.Add(1) })
			if err != nil {
				t.Fatalf("node %d sub %d: %v", i, j, err)
			}
			if err := s.Activate(); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitAds(t, pub.node, 2*perNode)

	const events = 5
	for i := 0; i < events; i++ {
		if err := core.Publish(pub.engine, StockQuote{StockObvent{Company: "T", Price: 500}}); err != nil {
			t.Fatal(err)
		}
	}
	// Price 500 passes thresholds 525..1000: 20 subs per node.
	waitFor(t, 10*time.Second, "filtered deliveries", func() bool {
		return got.Load() == int32(events*2*20)
	})

	class := obvent.TypeName(obvent.TypeOf[StockQuote]())
	st, ok := pub.node.RoutingStatsByClass()[class]
	if !ok {
		names := make([]string, 0)
		for k := range pub.node.RoutingStatsByClass() {
			names = append(names, k)
		}
		t.Fatalf("no routing stats for %q (have %v)", class, names)
	}
	if st.EventsRouted != events {
		t.Errorf("EventsRouted = %d, want %d", st.EventsRouted, events)
	}
	if st.CompoundEvals != events {
		t.Errorf("CompoundEvals = %d for %d events over %d remote subscriptions, want %d",
			st.CompoundEvals, events, 2*perNode, events)
	}
	if st.FallbackEvals != 0 {
		t.Errorf("FallbackEvals = %d, want 0", st.FallbackEvals)
	}
}

// TestCorruptOrSlowAdCannotStallPublish is the regression test for the
// control-plane locking discipline: advertisement decoding happens
// outside the node mutex, so a flood of corrupt and of huge (slow to
// decode) advertisements must not stall PublishEnvelope or delivery.
func TestCorruptOrSlowAdCannotStallPublish(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	cfg := fastCfg()
	cfg.Placement = AtPublisher
	nodes := newDomain(t, net, 2, cfg)
	pub, sub := nodes[0], nodes[1]

	var got atomic.Int32
	f := filter.Path("GetPrice").Lt(filter.Float(100))
	s, err := core.Subscribe(sub.engine, f, func(q StockQuote) { got.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Activate()
	waitAds(t, pub.node, 1)

	// An interloper floods the control channel with corrupt payloads
	// and with huge, slow-to-decode (but well-formed) advertisements of
	// types nobody conforms to.
	ep, err := net.NewEndpoint("evil")
	if err != nil {
		t.Fatal(err)
	}
	mux := multicast.NewMux(ep)
	ctrl := multicast.NewReliable(mux, "dace/ctrl", func(string, []byte) {}, fastCfg().Multicast)
	defer ctrl.Close()
	ctrl.SetMembers([]string{"node-0", "node-1", "evil"})

	bigFilter, err := filter.MarshalCanonical(filter.And(
		filter.Path("GetPrice").Lt(filter.Float(10)),
		filter.Path("GetCompany").Contains(filter.Str("nobody")),
	))
	if err != nil {
		t.Fatal(err)
	}
	hugeSubs := make([]core.SubscriptionInfo, 2000)
	for i := range hugeSubs {
		hugeSubs[i] = core.SubscriptionInfo{
			ID:       fmt.Sprintf("evil/sub-%04d", i),
			TypeName: "no.such.Type",
			Filter:   bigFilter,
		}
	}
	stop := make(chan struct{})
	var flood sync.WaitGroup
	flood.Add(1)
	go func() {
		defer flood.Done()
		seq := uint64(0)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if i%2 == 0 {
				_ = ctrl.Broadcast([]byte("\xff\x00this is not a gob stream\x13\x37"))
				continue
			}
			seq++
			ad := subscriptionAd{Node: "evil", Seq: seq, Ver: adSchemaVersion, Subs: hugeSubs}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(ad); err != nil {
				return
			}
			_ = ctrl.Broadcast(buf.Bytes())
		}
	}()

	// Publishing must make progress while the flood is in flight.
	const events = 50
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; i < events; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("publish loop stalled at event %d under ad flood", i)
		}
		if err := core.Publish(pub.engine, StockQuote{StockObvent{Company: "T", Price: 50}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 20*time.Second, "deliveries under ad flood", func() bool {
		return got.Load() == events
	})
	close(stop)
	flood.Wait()
}

// adObserver records decoded control-channel advertisements from one
// origin node.
type adObserver struct {
	mu  sync.Mutex
	ads []subscriptionAd
}

func (o *adObserver) onControl(_ string, payload []byte) {
	var ad subscriptionAd
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ad); err != nil {
		return
	}
	o.mu.Lock()
	o.ads = append(o.ads, ad)
	o.mu.Unlock()
}

func (o *adObserver) from(node string) []subscriptionAd {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []subscriptionAd
	for _, ad := range o.ads {
		if ad.Node == node {
			out = append(out, ad)
		}
	}
	return out
}

// introduceObserver broadcasts one empty v1 snapshot for the observer
// and waits until node n has witnessed it: deltas only flow once every
// peer is known to speak the delta schema, so a silent control-channel
// member would otherwise pin the domain to snapshots.
func introduceObserver(t *testing.T, ctrl *multicast.Reliable, n *Node) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(subscriptionAd{Node: "observer", Seq: 1, Ver: adSchemaVersion}); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Broadcast(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	// The node sends deltas only once every peer (the observer included)
	// has been witnessed at the delta-capable schema version; wait for
	// that state so the tests below exercise deltas deterministically.
	waitFor(t, 5*time.Second, "all peers witnessed as delta-capable", func() bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.allPeersSpeakDeltasLocked()
	})
}

// TestDeltaAdvertisementsOnTheWire pins the wire protocol: the first
// advertisement is a versioned full snapshot, subsequent small changes
// travel as deltas (adds and removals by subscription ID), and the
// receiving node reconciles them to the same state a snapshot would
// give.
func TestDeltaAdvertisementsOnTheWire(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	pub, sub := nodes[0], nodes[1]

	// An observer on the control channel: it records the ad stream and
	// advertises exactly once (introduceObserver) so the nodes treat it
	// as a delta-capable peer.
	ep, err := net.NewEndpoint("observer")
	if err != nil {
		t.Fatal(err)
	}
	mux := multicast.NewMux(ep)
	obs := &adObserver{}
	ctrl := multicast.NewReliable(mux, "dace/ctrl", obs.onControl, fastCfg().Multicast)
	defer ctrl.Close()
	peers := []string{"node-0", "node-1", "observer"}
	ctrl.SetMembers(peers)
	pub.node.SetPeers(peers)
	sub.node.SetPeers(peers)
	introduceObserver(t, ctrl, sub.node)

	var subsHeld []*core.Subscription
	for i := 0; i < 3; i++ {
		s, err := core.Subscribe(sub.engine, filter.Path("GetPrice").Lt(filter.Float(float64(100*(i+1)))), func(q StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
		subsHeld = append(subsHeld, s)
	}
	waitAds(t, pub.node, 3)
	if err := subsHeld[1].Deactivate(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "removal propagated", func() bool {
		return pub.node.RemoteSubscriptionCount() == 2
	})

	// The observer's copy of the stream lags the publisher's: wait for
	// the removal's ad itself, not just for enough ads.
	waitFor(t, 5*time.Second, "observer saw the ad stream", func() bool {
		ads := obs.from("node-1")
		return len(ads) >= 4 && slices.ContainsFunc(ads, func(ad subscriptionAd) bool {
			return ad.Delta && len(ad.Removed) > 0
		})
	})
	ads := obs.from("node-1")
	var sawSnapshot, sawDeltaAdd, sawDeltaRemove bool
	for _, ad := range ads {
		if ad.Ver != adSchemaVersion {
			t.Errorf("ad seq %d: Ver = %d, want %d", ad.Seq, ad.Ver, adSchemaVersion)
		}
		if !ad.Delta {
			sawSnapshot = true
			continue
		}
		if ad.BaseSeq != ad.Seq-1 {
			t.Errorf("delta seq %d has BaseSeq %d, want %d", ad.Seq, ad.BaseSeq, ad.Seq-1)
		}
		if len(ad.Subs) > 0 {
			sawDeltaAdd = true
		}
		if len(ad.Removed) > 0 {
			sawDeltaRemove = true
		}
	}
	if !sawSnapshot {
		t.Error("no full snapshot observed (first ad must be one)")
	}
	if !sawDeltaAdd {
		t.Error("no delta advertisement with additions observed")
	}
	if !sawDeltaRemove {
		t.Error("no delta advertisement with removals observed")
	}

	// Reconciled state must match reality: re-activate and check the
	// publisher converges to 3 again.
	if err := subsHeld[1].Activate(); err != nil {
		t.Fatal(err)
	}
	waitAds(t, pub.node, 3)
}

// TestSnapshotForcedAfterDeltaRun pins the resynchronization bound:
// after snapshotEvery consecutive deltas the next advertisement is a
// full snapshot again.
func TestSnapshotForcedAfterDeltaRun(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 2, fastCfg())
	sub := nodes[1]

	ep, err := net.NewEndpoint("observer")
	if err != nil {
		t.Fatal(err)
	}
	mux := multicast.NewMux(ep)
	obs := &adObserver{}
	ctrl := multicast.NewReliable(mux, "dace/ctrl", obs.onControl, fastCfg().Multicast)
	defer ctrl.Close()
	peers := []string{"node-0", "node-1", "observer"}
	ctrl.SetMembers(peers)
	nodes[0].node.SetPeers(peers)
	sub.node.SetPeers(peers)
	introduceObserver(t, ctrl, sub.node)

	// A stable base of subscriptions keeps each toggle's diff small, so
	// the toggles below travel as deltas.
	for i := 0; i < 4; i++ {
		base, err := core.Subscribe(sub.engine, filter.Path("GetPrice").Lt(filter.Float(float64(50*(i+1)))), func(q StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	s, err := core.Subscribe(sub.engine, nil, func(q StockQuote) {})
	if err != nil {
		t.Fatal(err)
	}
	// Each toggle is one advertisement; drive well past snapshotEvery.
	for i := 0; i < 2*snapshotEvery; i++ {
		if i%2 == 0 {
			_ = s.Activate()
		} else {
			_ = s.Deactivate()
		}
	}
	var deltas, snapshotsAfterFirst int
	waitFor(t, 10*time.Second, "delta run and forced snapshot observed", func() bool {
		deltas, snapshotsAfterFirst = 0, 0
		for _, ad := range obs.from("node-1") {
			if ad.Delta {
				deltas++
			} else if ad.Seq > 1 {
				snapshotsAfterFirst++
			}
		}
		return deltas >= snapshotEvery && snapshotsAfterFirst >= 2
	})
	// Delta chains must link consecutively, and no run of consecutive
	// deltas (by sequence) may exceed the resynchronization bound.
	ads := obs.from("node-1")
	sort.Slice(ads, func(i, j int) bool { return ads[i].Seq < ads[j].Seq })
	run, prevSeq := 0, uint64(0)
	for _, ad := range ads {
		if ad.Delta && ad.BaseSeq != ad.Seq-1 {
			t.Errorf("delta seq %d has BaseSeq %d, want %d", ad.Seq, ad.BaseSeq, ad.Seq-1)
		}
		contiguous := prevSeq == 0 || ad.Seq == prevSeq+1
		if ad.Delta && contiguous {
			run++
			if run > snapshotEvery {
				t.Errorf("run of %d consecutive deltas exceeds snapshotEvery=%d", run, snapshotEvery)
			}
		} else {
			run = 0
		}
		prevSeq = ad.Seq
	}
}

// TestMembershipDepartureDropsRoutingState pins the SetPeers hook: a
// node removed from the domain membership must vanish from the routing
// table — no more events addressed to it, no certified deliveries owed,
// no pinned memory.
func TestMembershipDepartureDropsRoutingState(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 3, fastCfg())
	pub, keep, gone := nodes[0], nodes[1], nodes[2]

	for _, sn := range []*testNode{keep, gone} {
		s, err := core.Subscribe(sn.engine, nil, func(q StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Activate(); err != nil {
			t.Fatal(err)
		}
	}
	waitAds(t, pub.node, 2)

	// node-2 leaves the domain.
	pub.node.SetPeers([]string{"node-0", "node-1"})
	if got := pub.node.RemoteSubscriptionCount(); got != 1 {
		t.Errorf("RemoteSubscriptionCount after departure = %d, want 1", got)
	}
	if subs := pub.node.certSubscribersFor(obvent.TypeName(obvent.TypeOf[StockQuote]())); len(subs) != 1 {
		t.Errorf("cert subscribers after departure = %v, want only node-1's", subs)
	}
}

// TestBrokenDeltaChainIsResynced pins both ends of the resync request.
// A node whose copy of a peer's delta chain broke (a parked delta had to
// be dropped) names the peer in its next ad's Resync; a node named in a
// Resync answers with a full snapshot — once, while its set is
// unchanged.
func TestBrokenDeltaChainIsResynced(t *testing.T) {
	net := netsim.New(netsim.Config{})
	defer net.Close()
	nodes := newDomain(t, net, 1, fastCfg())
	n := nodes[0].node
	var subs []*core.Subscription
	for i := 0; i < 2; i++ {
		s, err := core.Subscribe(nodes[0].engine, nil, func(StockQuote) {})
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	if err := subs[0].Activate(); err != nil {
		t.Fatal(err)
	}
	s := subs[1]

	ep, err := net.NewEndpoint("observer")
	if err != nil {
		t.Fatal(err)
	}
	mux := multicast.NewMux(ep)
	obs := &adObserver{}
	ctrl := multicast.NewReliable(mux, "dace/ctrl", obs.onControl, fastCfg().Multicast)
	defer ctrl.Close()
	peers := []string{"node-0", "observer"}
	ctrl.SetMembers(peers)
	n.SetPeers(peers)
	introduceObserver(t, ctrl, n)
	send := func(ad subscriptionAd) {
		t.Helper()
		ad.Node, ad.Ver = "observer", adSchemaVersion
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(ad); err != nil {
			t.Fatal(err)
		}
		if err := ctrl.Broadcast(buf.Bytes()); err != nil {
			t.Fatal(err)
		}
	}

	// The observer's seq 2 is lost: deltas 3.. park until one is dropped.
	for seq := uint64(3); seq < 40; seq++ {
		send(subscriptionAd{Seq: seq, Delta: true, BaseSeq: seq - 1})
	}
	waitFor(t, 5*time.Second, "node asks the observer for a snapshot", func() bool {
		for _, ad := range obs.from("node-0") {
			if slices.Contains(ad.Resync, "observer") {
				return true
			}
		}
		return false
	})

	// Answering: a delta first (so our last ad is not a snapshot), then
	// two requests. Only the first costs a snapshot.
	mark := len(obs.from("node-0"))
	if err := s.Activate(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the delta reaches the observer", func() bool {
		for _, ad := range obs.from("node-0")[mark:] {
			if ad.Delta && len(ad.Subs) == 1 {
				return true
			}
		}
		return false
	})
	mark = len(obs.from("node-0"))
	send(subscriptionAd{Seq: 100, Resync: []string{"node-0"}})
	send(subscriptionAd{Seq: 101, Resync: []string{"node-0"}})
	waitFor(t, 5*time.Second, "node answers with a snapshot", func() bool {
		for _, ad := range obs.from("node-0")[mark:] {
			if !ad.Delta {
				return true
			}
		}
		return false
	})
	time.Sleep(50 * time.Millisecond)
	snapshots := 0
	for _, ad := range obs.from("node-0")[mark:] {
		if !ad.Delta {
			snapshots++
		}
	}
	if snapshots != 1 {
		t.Errorf("%d snapshots answered two resync requests, want 1", snapshots)
	}
}
