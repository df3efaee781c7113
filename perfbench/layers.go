package main

// perLayer adds the traced run's per-layer metrics. phases[0] ran
// untraced and phases[1] traced, on the same set-up; probes sums the
// quiet control probes. It returns how many deliveries' spans failed to
// add up to their end-to-end latency.
func (b *bench) perLayer(res *result, phases []phase, spans []span, probes probeTally) int {
	plain, ph := phases[0], phases[1]
	events := float64(ph.end() - ph.first())
	window := float64(ph.fin().at - ph.begin().at)
	inWindow := func(s span) bool { return s.start >= ph.begin().at && s.end <= ph.fin().at }

	self := selfTimes(spans)
	byKind := make(map[spanKind][]float64)
	var publishSelf []float64
	var busy [2]int64 // send, recv
	late := make(map[int64]span)
	pub := make(map[int64]span)
	for _, s := range spans {
		switch s.kind {
		case spanOpen, spanSubscribe, spanDeactivate, spanClose:
			byKind[s.kind] = append(byKind[s.kind], float64(s.dur()))
			continue
		case spanLate, spanPublish:
			// Event spans belong to the window by their event.
			if s.seq < ph.first() || s.seq >= ph.end() {
				continue
			}
		default:
			if !inWindow(s) {
				continue
			}
		}
		byKind[s.kind] = append(byKind[s.kind], float64(s.dur()))
		switch s.kind {
		case spanPublish:
			publishSelf = append(publishSelf, float64(self[s.id]))
			pub[s.seq] = s
		case spanLate:
			late[s.seq] = s
		case spanSend:
			busy[0] += s.dur()
		case spanRecv:
			busy[1] += s.dur()
		}
	}

	// Per delivery, generator lateness + Publish + deliver lag must sum
	// exactly to the end-to-end latency the delivery log gives.
	mismatch := 0
	lag := b.latencies(ph, func(e event, d delivery) int64 {
		l, okL := late[d.seq]
		p, okP := pub[d.seq]
		if !okL || !okP || l.start != e.due || l.end != p.start ||
			l.dur()+p.dur()+(d.at-p.end) != d.at-e.due {
			mismatch++
		}
		return d.at - e.end
	})
	var lateness []float64
	for seq := ph.first(); seq < ph.end(); seq++ {
		e := b.events[seq-1]
		lateness = append(lateness, float64(e.start-e.due))
	}

	ms := func(k spanKind) float64 { return quantile(byKind[k], 0.5) / 1e6 }
	us := func(k spanKind, q float64) float64 { return quantile(byKind[k], q) / 1e3 }
	per := func(n uint64) float64 { return float64(n) / events }
	d := func(f func(s snap) uint64) uint64 { return delta(f(ph.begin()), f(ph.fin())) }
	changes := float64(2 * len(probes.ops))
	perChange := func(n uint64) float64 { return float64(n) / changes }
	// Ads applied and plans compiled are pure control-plane counts, so
	// in churn they come from the loaded window; frames and bytes cannot
	// be told apart from data traffic there and come from the probes.
	ads, plans, ctlChanges := probes.ads, probes.plans, changes
	if b.w.churn {
		ads = d(func(s snap) uint64 { return s.route.AdsApplied })
		plans = d(func(s snap) uint64 { return s.route.PlansCompiled })
		ctlChanges = float64(2 * len(b.opsIn(ph)))
	}

	res.add("govents.publish_p50_us", "us", us(spanPublish, 0.5), len(byKind[spanPublish]))
	res.add("govents.publish_p99_us", "us", us(spanPublish, 0.99), len(byKind[spanPublish]))
	res.add("govents.publish_self_p50_us", "us", quantile(publishSelf, 0.5)/1e3, len(publishSelf))
	res.add("govents.open_p50_ms", "ms", ms(spanOpen), len(byKind[spanOpen]))
	res.add("govents.subscribe_p50_ms", "ms", ms(spanSubscribe), len(byKind[spanSubscribe]))
	res.add("govents.deactivate_p50_ms", "ms", ms(spanDeactivate), len(byKind[spanDeactivate]))
	res.add("govents.close_p50_ms", "ms", ms(spanClose), len(byKind[spanClose]))

	res.add("transport.send_p50_us", "us", us(spanSend, 0.5), len(byKind[spanSend]))
	res.add("transport.send_busy_frac", "ratio", float64(busy[0])/window, 0)
	res.add("transport.recv_p50_us", "us", us(spanRecv, 0.5), len(byKind[spanRecv]))
	res.add("transport.recv_busy_frac", "ratio", float64(busy[1])/window, 0)
	res.add("transport.frames_per_event", "frames/event", per(d(func(s snap) uint64 { return s.pubTap.frames })), 0)
	res.add("transport.bytes_per_event", "B/event", per(d(func(s snap) uint64 { return s.pubTap.bytes })), 0)
	res.add("transport.acks_per_event", "frames/event", per(d(func(s snap) uint64 { return s.subTap.frames })), 0)
	res.add("transport.send_errors", "count", float64(probes.sendErrors), 0)
	res.add("transport.frames_per_change", "frames/change", perChange(probes.frames), 0)
	res.add("transport.bytes_per_change", "B/change", perChange(probes.bytes), 0)
	res.add("dace.ads_applied_per_change", "ads/change", float64(ads)/ctlChanges, 0)
	res.add("routing.plans_compiled_per_change", "plans/change", float64(plans)/ctlChanges, 0)

	inSub := d(func(s snap) uint64 { return s.sub.EventsIn })
	reached := make(map[int64]bool)
	for _, l := range b.standing {
		for _, dl := range l.deliveries() {
			if dl.seq >= ph.first() && dl.seq < ph.end() {
				reached[dl.seq] = true
			}
		}
	}
	wasted := 0.0
	if inSub > 0 && inSub > uint64(len(reached)) {
		wasted = float64(inSub-uint64(len(reached))) / float64(inSub)
	}
	res.add("core.deliver_lag_p50_us", "us", quantile(lag, 0.5)/1e3, len(lag))
	res.add("core.deliver_lag_p99_us", "us", quantile(lag, 0.99)/1e3, len(lag))
	res.add("core.matched_per_event", "count/event", per(d(func(s snap) uint64 { return s.sub.Matched })), 0)
	res.add("core.lane_enqueued_per_event", "count/event", per(d(func(s snap) uint64 { return s.laneEnqueued })), 0)
	res.add("core.wasted_in_ratio", "ratio", wasted, int(inSub))
	res.add("core.steals", "count", float64(d(func(s snap) uint64 { return s.sub.Steals })), 0)

	routed := d(func(s snap) uint64 { return s.route.EventsRouted })
	pruned := 0.0
	if routed > 0 {
		pruned = float64(d(func(s snap) uint64 { return s.route.NodesPruned })) / float64(routed)
	}
	res.add("routing.compound_evals_per_event", "count/event", per(d(func(s snap) uint64 { return s.route.CompoundEvals })), 0)
	res.add("routing.pruned_frac", "ratio", pruned, int(routed))

	res.add("wire.decodes_per_event", "count/event", per(d(func(s snap) uint64 { return s.pub.WireDecodes + s.sub.WireDecodes })), 0)
	res.add("wire.materializations_per_event", "count/event", per(d(func(s snap) uint64 {
		return s.pub.WireMaterializations + s.sub.WireMaterializations + s.route.WireMaterializations
	})), 0)
	res.add("wire.partial_decodes_per_event", "count/event", per(d(func(s snap) uint64 {
		return s.pub.PartialDecodes + s.sub.PartialDecodes + s.route.PartialDecodes
	})), 0)

	res.add("runtime.mallocs_per_event", "count/event", per(ph.fin().mem.Mallocs-ph.begin().mem.Mallocs), 0)
	res.add("runtime.gc_cycles", "count", float64(ph.fin().mem.NumGC-ph.begin().mem.NumGC), 0)
	res.add("runtime.gc_pause_ms", "ms", float64(ph.fin().mem.PauseTotalNs-ph.begin().mem.PauseTotalNs)/1e6, 0)

	res.add("loadgen.late_p50_us", "us", quantile(lateness, 0.5)/1e3, len(lateness))
	res.add("loadgen.late_p99_us", "us", quantile(lateness, 0.99)/1e3, len(lateness))

	e2e := func(p phase) float64 {
		return quantile(b.latencies(p, func(e event, d delivery) int64 { return d.at - e.due }), 0.5)
	}
	cpu := func(p phase) float64 { return float64(p.fin().cpu-p.begin().cpu) / float64(p.end()-p.first()) }
	res.add("trace.overhead_e2e_p50_us", "us", (e2e(ph)-e2e(plain))/1e3, 0)
	res.add("trace.overhead_cpu_us_per_event", "us", (cpu(ph)-cpu(plain))/1e3, 0)
	return mismatch
}

// delta is b-a for a cumulative counter. The matcher counters restart
// whenever a dispatch table or routing plan is rebuilt; a counter that
// went down counts from its restart, so in churn they undercount.
func delta(a, b uint64) uint64 {
	if b < a {
		return b
	}
	return b - a
}
