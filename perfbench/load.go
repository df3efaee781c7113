package main

import (
	"context"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"govents"
	"govents/filter"
	"govents/workload"
)

// quote is what the benchmark needs of a published quote class.
type quote interface {
	govents.Obvent
	GetCompany() string
	GetPrice() float64
	GetAmount() int
}

// spec describes one workload.
type spec struct {
	// fifo publishes QuoteFIFO to one filterless subscription; the
	// interest set then subscribes to QuoteReliable, which nobody
	// publishes, and only loads the control plane. Otherwise the
	// interest set receives the published QuoteReliable events.
	fifo      bool
	interests int     // standing Zipf-interest subscriptions on the subscriber
	rate      float64 // open-loop events/s; 0 selects the closed loop
	window    int     // closed loop: events outstanding
	churn     bool    // run the subscription control loop beside the data
}

// companies sizes the ticker universe so that 150 Zipf interests give
// about ten deliveries per event.
const companies = 50

var workloads = map[string]spec{
	"fanout": {interests: 150, rate: 1000},
	"stream": {fifo: true, interests: 150, window: 64},
	"churn":  {interests: 150, rate: 500, churn: true},
}

// bench is one benchmark run: the generated inputs, what was published,
// what was delivered, and the measured phases.
type bench struct {
	w     spec
	clk   clock
	tr    *tracer
	gen   *workload.QuoteGen // the quote stream
	churn *workload.QuoteGen // transient interests

	events    []event   // written by the publishing goroutine only
	standing  []*subLog // subscriptions owed every matching event
	idle      []*subLog // stream's interest set: owed nothing
	transient []*subLog // churn and probe subscriptions

	delivered atomic.Int64 // standing deliveries so far
	expected  int64        // standing deliveries owed, publisher's view
	slots     chan struct{}

	publishErrs int
	ops         []controlOp
}

func newBench(w spec, seed int64, tr *tracer, clk clock) *bench {
	gen := workload.NewQuoteGen(seed, companies)
	b := &bench{w: w, clk: clk, tr: tr, gen: gen,
		churn: workload.NewQuoteGen(seed+1, companies)}
	specs := standingSet(seed, w.interests)
	for i := range specs {
		b.idle = append(b.idle, &subLog{spec: &specs[i]})
	}
	if w.fifo {
		b.standing = []*subLog{{}} // one filterless subscription
	} else {
		b.standing, b.idle = b.idle, nil
	}
	if w.window > 0 {
		b.slots = make(chan struct{}, w.window) // one token per outstanding event
	}
	return b
}

// standingSet draws n Zipf interests whose shape is the same for every
// seed, so that a run's cost does not hinge on how many of 150 draws
// happened to land on the most popular ticker. Each company gets its
// expected share of the n interests (largest remainder over a fixed
// 100000-draw sample of the workload's own interest generator), and the
// price caps of one company's interests are evenly spread over
// [50, 1000). The seed picks the caps' offset and the activation order.
func standingSet(seed int64, n int) []workload.InterestSpec {
	const sample = 100000
	ref := workload.NewQuoteGen(0, companies)
	share := make(map[string]int)
	for _, s := range ref.Interests(sample) {
		share[s.Company]++
	}
	names := ref.Companies()
	quota := make([]int, len(names))
	rem := make([]int, len(names)) // indexes by descending remainder
	left := n
	for i, c := range names {
		quota[i] = share[c] * n / sample
		left -= quota[i]
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool {
		return share[names[rem[a]]]*n%sample > share[names[rem[b]]]*n%sample
	})
	for _, i := range rem[:left] {
		quota[i]++
	}
	rng := rand.New(rand.NewSource(seed))
	var out []workload.InterestSpec
	for i, c := range names {
		off := rng.Float64()
		for j := 0; j < quota[i]; j++ {
			out = append(out, workload.InterestSpec{Company: c, MaxPrice: 50 + 950*(float64(j)+off)/float64(quota[i])})
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// subscribe activates a QuoteFIFO or QuoteReliable subscription that
// records its deliveries in l. Standing subscriptions count towards the
// drain and, in the closed loop, free a window slot.
func (b *bench) subscribe(d *govents.Domain, l *subLog, fifo, standing bool) (*govents.Subscription, error) {
	var f *filter.Expr
	if l.spec != nil {
		f = l.spec.Filter()
	}
	if fifo {
		return subscribeQuote[workload.QuoteFIFO](b, d, f, l, standing)
	}
	return subscribeQuote[workload.QuoteReliable](b, d, f, l, standing)
}

func subscribeQuote[T quote](b *bench, d *govents.Domain, f *filter.Expr, l *subLog, standing bool) (*govents.Subscription, error) {
	return govents.Subscribe(d, f, func(q T) {
		at := b.clk.now()
		seq := int64(q.GetAmount())
		l.record(seq, at, workload.StockQuote{StockObvent: workload.StockObvent{
			Company: q.GetCompany(), Price: q.GetPrice()}})
		if standing {
			b.delivered.Add(1)
			if b.slots != nil {
				select {
				case b.slots <- struct{}{}:
				default:
				}
			}
		}
		b.tr.leaf(spanHandler, seq, at, b.clk.now())
	})
}

// subscriptions is how many subscriptions a set-up keeps active.
func (b *bench) subscriptions() int { return len(b.standing) + len(b.idle) }

// openRig sets up both Domains with the workload's standing and idle
// subscriptions.
func (b *bench) openRig() (*rig, error) {
	n := len(b.standing)
	return openRig(b.tr, b.clk, b.subscriptions(), func(d *govents.Domain, i int) error {
		var err error
		if i < n {
			_, err = b.subscribe(d, b.standing[i], b.w.fifo, true)
		} else {
			_, err = b.subscribe(d, b.idle[i-n], false, false)
		}
		return err
	})
}

// publish issues the next quote, timed from due.
func (b *bench) publish(r *rig, due int64) {
	q := b.gen.Next()
	seq := int64(len(b.events) + 1)
	q.Amount = int(seq)
	var o govents.Obvent
	if b.w.fifo {
		o = workload.QuoteFIFO{StockObvent: q.StockObvent}
	} else {
		o = workload.QuoteReliable{StockObvent: q.StockObvent}
	}
	start := b.clk.now()
	id := b.tr.begin(pubSide, seq)
	err := r.pub.Publish(context.Background(), o)
	end := b.clk.now()
	b.tr.end(id, spanPublish, seq, start, end)
	b.tr.leaf(spanLate, seq, due, start)
	e := event{company: q.Company, price: q.Price, due: due, start: start, end: end, pubErr: err != nil}
	b.events = append(b.events, e)
	if err != nil {
		b.publishErrs++
		return
	}
	for _, l := range b.standing {
		if l.matches(e.quote()) {
			b.expected++
		}
	}
}

// snap is a snapshot of every counter a phase reports a delta of.
type snap struct {
	at             int64
	cpu            time.Duration
	mem            runtime.MemStats
	pub, sub       govents.DispatchStats
	route          govents.RoutingStats
	laneEnqueued   uint64
	dropped        uint64
	pubTap, subTap tapCounts
}

func (b *bench) snapshot(r *rig) snap {
	s := snap{
		pub: r.pub.Stats(), sub: r.sub.Stats(), route: r.pub.RoutingStats(),
		pubTap: r.pubTap.counts(), subTap: r.subTap.counts(),
	}
	for _, l := range r.sub.LaneStats() {
		s.laneEnqueued += l.Stats.EventsIn
	}
	for _, d := range []*govents.Domain{r.pub, r.sub} {
		for _, n := range d.DroppedByReason() {
			s.dropped += n
		}
	}
	runtime.ReadMemStats(&s.mem)
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.at = b.clk.now()
	return s
}

// cut is the state at one slice boundary: the first event published
// after it, and the counters.
type cut struct {
	seq int64
	s   snap
}

// phase is one measured window of data-plane load, cut into one-second
// slices. Time metrics are taken per slice and summarised over slices,
// so a burst of CPU taken from a shared virtual machine by its
// neighbours skews some slices, not the result.
type phase struct {
	cuts    []cut // slices+1 boundaries
	stalled bool  // the closed loop lost a window slot for good
}

func (p phase) first() int64 { return p.cuts[0].seq }
func (p phase) end() int64   { return p.cuts[len(p.cuts)-1].seq }
func (p phase) begin() snap  { return p.cuts[0].s }
func (p phase) fin() snap    { return p.cuts[len(p.cuts)-1].s }

// parts returns the phase's slices as phases of their own.
func (p phase) parts() []phase {
	out := make([]phase, 0, len(p.cuts)-1)
	for i := 0; i+1 < len(p.cuts); i++ {
		out = append(out, phase{cuts: p.cuts[i : i+2]})
	}
	return out
}

// cutter takes the n slice boundaries of a window [from, from+dur) as
// the load generator passes them.
type cutter struct {
	b    *bench
	r    *rig
	ph   *phase
	from int64
	dur  int64
	n    int64
}

// pass records every boundary at or before now not yet recorded.
func (c *cutter) pass(now int64) {
	for int64(len(c.ph.cuts)) <= c.n && now >= c.from+c.dur*int64(len(c.ph.cuts))/c.n {
		c.ph.cuts = append(c.ph.cuts, cut{seq: int64(len(c.b.events) + 1), s: c.b.snapshot(c.r)})
	}
}

// run drives the workload's load for warm+dur and measures the last
// dur of it. In churn, the control loop runs for the whole phase. It
// then waits, up to drainTimeout, for the owed deliveries; the oracle
// counts any that never came.
func (b *bench) run(r *rig, warm, dur time.Duration, traced bool) phase {
	var ph phase
	b.tr.set(traced)
	defer b.tr.set(b.tr != nil)
	stopCtl := make(chan struct{})
	var ctl sync.WaitGroup
	if b.w.churn {
		ctl.Add(1)
		go func() {
			defer ctl.Done()
			b.controlLoop(r, stopCtl)
		}()
	}
	start := b.clk.now()
	c := &cutter{b: b, r: r, ph: &ph, from: start + int64(warm), dur: int64(dur), n: max(1, int64(dur/time.Second))}
	if b.w.rate > 0 {
		b.openLoop(r, start, c)
	} else {
		b.closedLoop(r, c)
	}
	c.pass(c.from + c.dur) // a stalled loop stops early
	close(stopCtl)
	ctl.Wait()
	deadline := time.Now().Add(drainTimeout)
	for b.delivered.Load() < b.expected && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	return ph
}

// openLoop publishes on a fixed schedule: event i is due at start +
// i/rate, however late earlier ones ran. Every overdue event is
// published on each wake and timed from its due time, so a stall shows
// as latency rather than as load that was never offered.
func (b *bench) openLoop(r *rig, start int64, c *cutter) {
	period := float64(time.Second) / b.w.rate
	stop := c.from + c.dur
	for i := 0; ; i++ {
		due := start + int64(float64(i)*period)
		if due >= stop {
			return
		}
		if wait := due - b.clk.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		c.pass(due)
		b.publish(r, due)
	}
}

// closedLoop keeps a fixed window of events outstanding: the next
// publish waits for a delivery to free a slot. Each event is timed from
// its send.
func (b *bench) closedLoop(r *rig, c *cutter) {
	for len(b.slots) < cap(b.slots) {
		b.slots <- struct{}{}
	}
	stop := c.from + c.dur
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	for {
		timeout.Reset(5 * time.Second)
		select {
		case <-b.slots:
		case <-timeout.C:
			c.ph.stalled = true
			return
		}
		now := b.clk.now()
		if now >= stop {
			return
		}
		c.pass(now)
		b.publish(r, b.clk.now())
	}
}

// controlOp is one subscribe → visible → deactivate → gone cycle.
type controlOp struct {
	at            int64 // Subscribe call
	visible, gone int64 // ns until the publisher counted / dropped it
	ok            bool
}

// controlCycle runs one control op on a fresh transient interest.
func (b *bench) controlCycle(r *rig) controlOp {
	s := b.churn.Interests(1)[0]
	l := &subLog{spec: &s}
	b.transient = append(b.transient, l)
	n := b.subscriptions()
	op := controlOp{at: b.clk.now()}
	id := b.tr.begin(subSide, 0)
	sub, err := b.subscribe(r.sub, l, b.w.fifo, false)
	b.tr.end(id, spanSubscribe, 0, op.at, b.clk.now())
	if err != nil {
		return op
	}
	seen := r.waitRemote(n+1, opWait)
	op.visible = b.clk.now() - op.at
	start := b.clk.now()
	id = b.tr.begin(subSide, 0)
	err = sub.Deactivate()
	b.tr.end(id, spanDeactivate, 0, start, b.clk.now())
	gone := err == nil && r.waitRemote(n, opWait)
	op.gone = b.clk.now() - start
	op.ok = seen && gone
	return op
}

// drainTimeout bounds the wait for deliveries after a phase, and
// opWait the wait for a control op to show at the publisher.
const (
	drainTimeout = 10 * time.Second
	opWait       = 5 * time.Second
)

// controlPeriod paces the churn control loop: a cycle starts at most
// this often, and right after the previous one when that ran longer.
// Pacing keeps the control work per published event fixed.
const controlPeriod = 50 * time.Millisecond

// controlLoop repeats control ops beside the data-plane load until
// stop closes or one fails. It is a closed loop: one op at a time.
func (b *bench) controlLoop(r *rig, stop <-chan struct{}) {
	next := time.NewTimer(0)
	defer next.Stop()
	for {
		select {
		case <-stop:
			return
		case <-next.C:
		}
		next.Reset(controlPeriod)
		op := b.controlCycle(r)
		b.ops = append(b.ops, op)
		if !op.ok {
			return
		}
	}
}

// probeTally sums the quiet control probes of every set-up.
type probeTally struct {
	ops                       []controlOp
	frames, bytes, ads, plans uint64 // both Domains' sends; publisher's routing
	sendErrors, dropped       uint64 // over the set-up's whole life
}

// probe runs control ops on the quiet system (no data-plane load) for
// about dur and at least probeMinOps times, and adds them and the
// counters they moved to t.
func (b *bench) probe(r *rig, dur time.Duration, t *probeTally) {
	begin := b.snapshot(r)
	deadline := time.Now().Add(dur)
	for i := 0; i < probeMinOps || time.Now().Before(deadline); i++ {
		op := b.controlCycle(r)
		t.ops = append(t.ops, op)
		b.ops = append(b.ops, op)
		if !op.ok {
			break
		}
	}
	fin := b.snapshot(r)
	t.frames += fin.pubTap.frames + fin.subTap.frames - begin.pubTap.frames - begin.subTap.frames
	t.bytes += fin.pubTap.bytes + fin.subTap.bytes - begin.pubTap.bytes - begin.subTap.bytes
	t.ads += fin.route.AdsApplied - begin.route.AdsApplied
	t.plans += fin.route.PlansCompiled - begin.route.PlansCompiled
	t.sendErrors += fin.pubTap.errors + fin.subTap.errors
	t.dropped += fin.dropped
}
