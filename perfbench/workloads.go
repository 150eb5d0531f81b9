package main

import (
	"fmt"
	"time"

	"repro/internal/schedd"
)

func runSchedSteady(b *bench) error { return b.runServing(steadySpec) }

func runIngestChurn(b *bench) error { return b.runServing(churnSpec) }

// servingWindows is how many equal windows a serving run's measurement is
// split into; the end-to-end metrics are medians over them.
const servingWindows = 10

// probeTime is how long the traced run sends SCHED straight to one shard
// (and, for figures, through the gateway): as long as its traced phase, so
// the shard's p99 rests on as many samples as the gateway's.
func (b *bench) probeTime() time.Duration { return b.seconds / 2 }

func (b *bench) runServing(spec servingSpec) error {
	run, setups, err := b.setupServing(spec)
	if err != nil {
		return err
	}
	defer run.t.shutdown()
	b.set("setup_s", median(setups))
	fmt.Printf("inputs: sha256 %s (first 10000 reports and queries)\n", inputsHash(b.seed, spec, 10000))
	run.startLoad()

	if !b.traced {
		var ws []window
		for i := 0; i < servingWindows; i++ {
			w := window{from: sampleProc()}
			rep0 := run.reported.Load()
			lat, err := run.measure(b.seconds / servingWindows)
			if err != nil {
				run.stopLoad()
				return err
			}
			w.to = sampleProc()
			w.cpuOps = int64(len(lat))
			if spec.reportRate > 0 {
				w.cpuOps = run.reported.Load() - rep0
			}
			for _, ns := range lat {
				w.lat = append(w.lat, ns/1e6)
			}
			ws = append(ws, w)
		}
		run.stopLoad()
		b.setOpMetrics(ws)
		b.set("peak_rss_mb", peakRSSMB())
		run.reconcile()
		run.report()
		return nil
	}

	untraced, err := run.measure(b.seconds / 2)
	if err != nil {
		run.stopLoad()
		return err
	}
	b.tr.on = true
	from, rep0 := sampleProc(), run.reported.Load()
	traced, err := run.measure(b.seconds / 2)
	to, rep1 := sampleProc(), run.reported.Load()
	var direct []float64
	if err == nil {
		direct, err = run.probe(b.probeTime())
	}
	b.tr.on = false
	run.stopLoad()
	if err != nil {
		return err
	}
	ops := int64(len(traced))
	if spec.reportRate > 0 {
		ops = rep1 - rep0
	}
	b.setProc(from, to, ops)
	b.set("trace.overhead_frac", median(traced)/median(untraced)-1)
	run.reconcile()
	run.report()
	run.setLayerCounters(traced, direct)
	run.t.shutdown()

	// The figure layers are idle here; one traced sweep measures them.
	fs, err := newFigureSuite(b)
	if err != nil {
		return err
	}
	b.tr.on = true
	_, err = fs.layerSweeps(0)
	b.tr.on = false
	if err != nil {
		return err
	}
	return b.replayLayers(run.pop)
}

// serveLayers measures the serving layers for a workload that leaves
// them idle: it boots the sched-steady tier and runs a short traced
// closed loop (a few thousand queries) through the gateway and straight
// to one shard.
func (b *bench) serveLayers() (population, error) {
	run, _, err := b.setupServing(steadySpec)
	if err != nil {
		return population{}, err
	}
	defer run.t.shutdown()
	run.startLoad()
	d := min(b.probeTime(), 5*time.Second)
	b.tr.on = true
	traced, err := run.measure(d)
	var direct []float64
	if err == nil {
		direct, err = run.probe(d)
	}
	b.tr.on = false
	run.stopLoad()
	if err != nil {
		return population{}, err
	}
	run.reconcile()
	run.setLayerCounters(traced, direct)
	return run.pop, nil
}

// report prints how many steady replies carried an equal-cost matching
// other than the AP's first one.
func (r *servingRun) report() {
	if r.chk.identical {
		fmt.Printf("replies: %d queries, %d with slots other than the AP's first (equal cost)\n", r.sentQueries, r.chk.flips)
	}
}

// quiesce waits until the gateway and every shard have stopped taking in
// datagrams, so their counters can be reconciled exactly.
func (r *servingRun) quiesce() {
	total := func() int64 {
		n := r.t.gw.IngestEvents().Get("datagrams") + r.t.gw.IngestEvents().Get("forwarded")
		for _, s := range r.t.shards {
			c := s.Counters()
			n += c.Get("ingest_datagrams") + c.Get("reports_ok")
		}
		for _, reason := range schedd.DropReasons() {
			for _, s := range r.t.shards {
				n += s.Counters().Get(reason)
			}
		}
		return n
	}
	prev, stable := total(), 0
	for deadline := time.Now().Add(5 * time.Second); stable < 5 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		if cur := total(); cur == prev {
			stable++
		} else {
			prev, stable = cur, 0
		}
	}
}

// reconcile checks that the tier's counters account for every report the
// load generator sent, and counts reports not applied on every replica as
// failed:
//
//	sent       = gateway datagrams + lost before the gateway
//	forwarded  = accepted × replication (less failed forward writes)
//	shard datagrams = reports_ok + every drop reason, per shard
func (r *servingRun) reconcile() {
	b := r.b
	r.quiesce()
	gw := r.t.gw.IngestEvents()
	sent := r.t.sent
	datagrams := gw.Get("datagrams")
	if datagrams > sent {
		b.fail("gateway read %d datagrams but %d were sent", datagrams, sent)
	}
	accepted, forwarded, fwdErr := gw.Get("accepted"), gw.Get("forwarded"), gw.Get("forward_err")
	if forwarded+fwdErr != accepted*replication {
		b.fail("gateway forwarded %d (+%d failed) copies of %d accepted reports at replication %d",
			forwarded, fwdErr, accepted, replication)
	}
	var shardIn, applied int64
	for i, s := range r.t.shards {
		c := s.Counters()
		in, ok := c.Get("ingest_datagrams"), c.Get("reports_ok")
		drops := c.Get("ingest_shed") + c.Get("drop_duplicate") + c.Get("drop_aps_full")
		for _, reason := range schedd.DropReasons() {
			drops += c.Get(reason)
		}
		if ok+drops != in {
			b.fail("shard-%d: reports_ok %d + drops %d != datagrams %d", i, ok, drops, in)
		}
		shardIn += in
		applied += ok
	}
	if shardIn > forwarded {
		b.fail("shards read %d datagrams but the gateway forwarded %d", shardIn, forwarded)
	}
	missing := sent*replication - applied
	if missing > sent {
		missing = sent
	}
	if missing > 0 {
		var shed int64
		for _, s := range r.t.shards {
			shed += s.Counters().Get("ingest_shed")
		}
		fmt.Printf("reports: %d sent, %d copies not applied: %d lost before the gateway, %d shed there, "+
			"%d lost between gateway and shards, %d shed by shards\n",
			sent, missing, sent-datagrams, gw.Get("shed"), forwarded-shardIn, shed)
	}
	b.attempted += sent
	b.failed += max(missing, 0)
}

// setLayerCounters records the schedd, session, gateway and loadgen
// per-layer metrics from the tier's counters and the traced gateway and
// direct-shard latencies (ns).
func (r *servingRun) setLayerCounters(gwLat, shardLat []float64) {
	b := r.b
	q, n := quantiles(shardLat, 0.5, 0.99)
	fmt.Printf("direct shard SCHED: %d samples\n", n)
	b.set("schedd.sched_rtt_p50_ms", q[0]/1e6)
	b.set("schedd.sched_rtt_p99_ms", q[1]/1e6)
	// Derived: the gateway's share of a SCHED beyond one shard's round trip.
	gwP50 := median(gwLat)
	fmt.Printf("gateway.sched_self_ms is derived: gateway SCHED p50 %.4f ms - shard p50 %.4f ms\n", gwP50/1e6, q[0]/1e6)
	b.set("gateway.sched_self_ms", (gwP50-q[0])/1e6)

	sum := func(name string, get func(i int) int64) {
		var v int64
		for i := range r.t.shards {
			v += get(i)
		}
		b.set(name, float64(v))
	}
	for _, c := range []string{"reports_ok", "ingest_shed", "drop_duplicate", "served_blossom",
		"served_greedy", "served_serial", "query_overload"} {
		c := c
		sum("schedd."+c, func(i int) int64 { return r.t.shards[i].Counters().Get(c) })
	}
	for _, c := range []string{"plan_warm", "plan_cold", "plan_contended"} {
		c := c
		sum("schedd."+c, func(i int) int64 { return r.t.shards[i].PlannerEvents().Get(c) })
	}
	for _, c := range []string{"cold", "resume", "roam"} {
		c := c
		sum("session."+c, func(i int) int64 { return r.t.shards[i].SessionEvents().Get(c) })
	}
	var blossom, queries int64
	for _, s := range r.t.shards {
		blossom += s.Counters().Get("served_blossom")
		queries += s.Counters().Get("queries")
	}
	b.set("schedd.blossom_frac", float64(blossom)/float64(max(queries, 1)))

	in, qe := r.t.gw.IngestEvents(), r.t.gw.QueryEvents()
	b.set("gateway.datagrams", float64(in.Get("datagrams")))
	b.set("gateway.forwarded", float64(in.Get("forwarded")))
	b.set("gateway.shed", float64(in.Get("shed")))
	for _, c := range []string{"hedges", "retries", "shard_err", "degraded"} {
		b.set("gateway."+c, float64(qe.Get(c)))
	}
	b.set("gateway.fanout_per_query", float64(qe.Get("fanout"))/float64(max(qe.Get("queries"), 1)))

	r.mu.Lock()
	lq, ln := quantiles(r.lag, 0.99)
	r.mu.Unlock()
	fmt.Printf("loadgen lag: %d samples\n", ln)
	b.set("loadgen.lag_p99_ms", lq[0]/1e6)
	b.set("loadgen.reports_sent", float64(r.t.sent))
	b.set("loadgen.queries_sent", float64(r.sentQueries))
}
