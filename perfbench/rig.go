package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"govents"
	"govents/netsim"
	"govents/workload"
)

// tap wraps a Domain's transport: it counts the frames and bytes the
// Domain sends, times Send and the inbound handler when tracing is on,
// and wakes visibility waiters after every inbound frame.
type tap struct {
	inner govents.Transport
	tr    *tracer
	side  side

	sentFrames, sentBytes atomic.Uint64
	sendErrors            atomic.Uint64

	// wake gets a token after each inbound frame has been handled, so a
	// waiter can re-check state the frame may have changed.
	wake chan struct{}
}

func newTap(inner govents.Transport, tr *tracer, sd side) *tap {
	return &tap{inner: inner, tr: tr, side: sd, wake: make(chan struct{}, 1)}
}

func (t *tap) Addr() string { return t.inner.Addr() }

func (t *tap) Send(to string, payload []byte) error {
	var err error
	if t.tr.active() {
		start := t.tr.clk.now()
		err = t.inner.Send(to, payload)
		end := t.tr.clk.now()
		t.tr.send(t.side, start, end)
	} else {
		err = t.inner.Send(to, payload)
	}
	if err != nil {
		t.sendErrors.Add(1)
		return err
	}
	t.sentFrames.Add(1)
	t.sentBytes.Add(uint64(len(payload)))
	return nil
}

func (t *tap) SetHandler(h netsim.Handler) {
	t.inner.SetHandler(func(from string, payload []byte) {
		if t.tr.active() {
			start := t.tr.clk.now()
			h(from, payload)
			t.tr.leaf(spanRecv, 0, start, t.tr.clk.now())
		} else {
			h(from, payload)
		}
		select {
		case t.wake <- struct{}{}:
		default:
		}
	})
}

func (t *tap) Close() error { return t.inner.Close() }

// tapCounts is a snapshot of one tap's counters.
type tapCounts struct{ frames, bytes, errors uint64 }

func (t *tap) counts() tapCounts {
	return tapCounts{frames: t.sentFrames.Load(), bytes: t.sentBytes.Load(), errors: t.sendErrors.Load()}
}

// rig is one benchmark set-up: a publisher and a subscriber Domain,
// each on its own loopback TCP transport.
type rig struct {
	pub, sub       *govents.Domain
	pubTap, subTap *tap
	tr             *tracer
}

const opTimeout = 30 * time.Second

// openRig opens both Domains and activates the standing set through
// subscribe, then waits until the publisher counts every standing
// subscription.
func openRig(tr *tracer, clk clock, nStanding int, subscribe func(d *govents.Domain, i int) error) (*rig, error) {
	ctx := context.Background()
	ptr, err := govents.ListenTCP("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	str, err := govents.ListenTCP("127.0.0.1:0")
	if err != nil {
		_ = ptr.Close()
		return nil, err
	}
	r := &rig{pubTap: newTap(ptr, tr, pubSide), subTap: newTap(str, tr, subSide), tr: tr}
	peers := []string{ptr.Addr(), str.Addr()}
	open := func(name string, t *tap) (*govents.Domain, error) {
		start := clk.now()
		id := tr.begin(t.side, 0)
		d, err := govents.Open(ctx, name, govents.WithTransport(t), govents.WithPeers(peers...))
		tr.end(id, spanOpen, 0, start, clk.now())
		if err != nil {
			return nil, err
		}
		workload.RegisterTypes(d.Registry())
		return d, nil
	}
	if r.pub, err = open("pub", r.pubTap); err != nil {
		_ = str.Close()
		return nil, err
	}
	if r.sub, err = open("sub", r.subTap); err != nil {
		_ = r.pub.Close(ctx)
		return nil, err
	}
	for i := 0; i < nStanding; i++ {
		start := clk.now()
		id := tr.begin(subSide, 0)
		err := subscribe(r.sub, i)
		tr.end(id, spanSubscribe, 0, start, clk.now())
		if err != nil {
			_ = r.close(clk)
			return nil, fmt.Errorf("standing subscription %d: %w", i, err)
		}
	}
	if !r.waitRemote(nStanding, opTimeout) {
		err := fmt.Errorf("publisher saw %d of %d standing subscriptions after %v",
			r.pub.RemoteSubscriptionCount(), nStanding, opTimeout)
		_ = r.close(clk)
		return nil, err
	}
	return r, nil
}

// waitRemote waits until the publisher counts exactly n remote
// subscriptions, re-checking after every frame it receives (and at
// least every millisecond). It reports whether that happened in time.
func (r *rig) waitRemote(n int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for r.pub.RemoteSubscriptionCount() != n {
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-r.pubTap.wake:
		case <-tick.C:
		}
	}
	return true
}

// close shuts the subscriber, then the publisher, down.
func (r *rig) close(clk clock) error {
	var errs []error
	for _, sd := range []side{subSide, pubSide} {
		d := r.sub
		if sd == pubSide {
			d = r.pub
		}
		if d == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		start := clk.now()
		id := r.tr.begin(sd, 0)
		err := d.Close(ctx)
		r.tr.end(id, spanClose, 0, start, clk.now())
		cancel()
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
