package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/matching"
	"repro/internal/mc"
	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/schedd"
	"repro/internal/session"
	"repro/internal/topo"
)

// Replayed results land in these sinks so the compiler keeps the calls.
var (
	sinkReport    schedd.Report
	sinkBytes     []byte
	sinkErr       error
	sinkPlacement topo.TwoLinkPlacement
	sinkFloat     float64
)

// replayBudget is the wall time each per-layer replay measures for.
func (b *bench) replayBudget() time.Duration {
	if b.smoke {
		return 20 * time.Millisecond
	}
	return 250 * time.Millisecond
}

// nsPerOp times f, which performs one operation, over about budget: it
// sizes a batch to a fifth of the budget, times five batches and returns
// the median batch's nanoseconds per operation.
func nsPerOp(budget time.Duration, f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if el := time.Since(t0); el >= budget/20 || n >= 1<<30 {
			n = int(float64(n) * float64(budget/5) / float64(max(el, 1)))
			break
		}
		n *= 2
	}
	n = max(n, 1)
	var per []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}

// replay measures one layer entry point under a replay span and records
// it in unit (ns/op scaled by scale).
func (b *bench) replay(name string, scale float64, f func()) {
	sp := b.tr.begin("replay."+name, -1, 0)
	v := nsPerOp(b.replayBudget(), f)
	b.tr.end(sp)
	b.set(name, v*scale)
}

// apClients is the sorted client set of pop's AP 1, truncated to n: the
// same stations and SNRs a shard's snapshot hands its planner.
func apClients(pop population, n int) []sched.Client {
	var out []sched.Client
	for i, st := range pop.station {
		if pop.ap[i] == 1 && len(out) < n {
			out = append(out, sched.Client{ID: fmt.Sprintf("sta%d", st), SNR: phy.FromDB(float64(pop.snr[i]) / 1000)})
		}
	}
	return out
}

// drifted returns clients with every SNR moved by a seeded ±1 dB.
func drifted(clients []sched.Client, rng *rand.Rand) []sched.Client {
	out := append([]sched.Client(nil), clients...)
	for i := range out {
		out[i].SNR *= phy.FromDB(rng.Float64()*2 - 1)
	}
	return out
}

// pairCosts is the matcher instance for clients: the cheaper of SIC and
// serial airtime for every pair, in integer nanoseconds.
func pairCosts(clients []sched.Client) [][]int64 {
	ch, bits := phy.Wifi20MHz, 12000.0
	n := len(clients)
	c := make([][]int64, n)
	for i := range c {
		c[i] = make([]int64, n)
		for j := range c[i] {
			if i == j {
				continue
			}
			serial := phy.TxTime(bits, ch.Capacity(clients[i].SNR)) + phy.TxTime(bits, ch.Capacity(clients[j].SNR))
			joint := min(serial, core.Pair{S1: clients[i].SNR, S2: clients[j].SNR}.SICTime(ch, bits))
			c[i][j] = int64(joint * 1e9)
		}
	}
	return c
}

// replayLayers replays each layer's public entry points on the workload's
// inputs (pop's per-AP client sets, the churn report stream) and records
// the matching, sched, schedd, gateway, session, mc, phy, topo and core
// per-layer metrics.
func (b *bench) replayLayers(pop population) error {
	b.tr.on = true
	defer func() { b.tr.on = false }()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(b.seed))
	opts := sched.Options{Channel: phy.Wifi20MHz, PacketBits: 12000}

	for _, n := range []int{32, 64} {
		suffix := fmt.Sprintf("_n%d", n)
		base := apClients(pop, n)
		alt := drifted(base, rng)

		// matching: the solver alone, warm with no edits and with every
		// cost edited between solves.
		costs := [2][][]int64{pairCosts(base), pairCosts(alt)}
		s := matching.NewSolver()
		if err := s.Reset(n); err != nil {
			return err
		}
		setAll := func(c [][]int64) {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if err := s.SetCost(i, j, c[i][j]); err != nil {
						panic(err)
					}
				}
			}
		}
		setAll(costs[0])
		if _, err := s.Solve(ctx); err != nil {
			return err
		}
		b.replay("matching.warm_noedit_us"+suffix, 1e-3, func() { s.Warm(ctx) })
		k := 0
		b.replay("matching.warm_alledit_us"+suffix, 1e-3, func() {
			k++
			setAll(costs[k%2])
			s.Warm(ctx)
		})

		// sched: the planner the shards run per AP.
		pl := sched.NewPlanner(opts)
		if _, err := pl.Plan(ctx, base); err != nil {
			return err
		}
		b.replay("sched.plan_unchanged_us"+suffix, 1e-3, func() { pl.Plan(ctx, base) })
		one := [2][]sched.Client{base, append([]sched.Client(nil), base...)}
		one[1][0].SNR = alt[0].SNR
		b.replay("sched.plan_one_drift_us"+suffix, 1e-3, func() {
			k++
			pl.Plan(ctx, one[k%2])
		})
		all := [2][]sched.Client{base, alt}
		b.replay("sched.plan_all_drift_us"+suffix, 1e-3, func() {
			k++
			pl.Plan(ctx, all[k%2])
		})
		b.replay("sched.plan_cold_us"+suffix, 1e-3, func() {
			sched.NewPlanner(opts).Plan(ctx, base)
		})
	}

	// schedd wire codec and the gateway prefix filter, over the churn
	// report stream.
	churnPop := newPopulation(b.seed, churnSpec.stations, churnSpec.aps)
	stream := newReportStream(churnPop, b.seed, 1)
	reports := make([]schedd.Report, 4096)
	wire := make([][]byte, len(reports))
	for i := range reports {
		reports[i] = stream.next()
		buf, err := reports[i].Marshal()
		if err != nil {
			return err
		}
		wire[i] = buf
	}
	k := 0
	b.replay("schedd.decode_ns", 1, func() {
		k++
		sinkReport, sinkErr = schedd.DecodeReport(wire[k%len(wire)])
	})
	b.replay("schedd.marshal_ns", 1, func() {
		k++
		sinkBytes, sinkErr = reports[k%len(reports)].Marshal()
	})
	b.replay("gateway.fast_reject_ns", 1, func() {
		k++
		sinkErr = gateway.FastReject(wire[k%len(wire)])
	})

	if err := b.replaySession(stream); err != nil {
		return err
	}
	if err := b.replayMC(ctx); err != nil {
		return err
	}
	return b.replayKernels(rng)
}

// replaySession feeds session.Manager.Observe the churn stream, memory-only
// and with a data directory, then times recovery of data directories
// written the same way.
func (b *bench) replaySession(stream *reportStream) error {
	at := time.Unix(1_700_000_000, 0)
	obs := func() session.Obs {
		r := stream.next()
		at = at.Add(time.Millisecond)
		return session.Obs{Station: r.Station, AP: r.AP, Seq: r.Seq, SNRMilliDB: r.SNRMilliDB, At: at}
	}
	mem, err := session.Open(session.Config{}, at)
	if err != nil {
		return err
	}
	b.replay("session.observe_mem_ns", 1, func() { mem.Observe(obs()) })
	mem.Close()

	walDir := filepath.Join(b.work, "session-wal")
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return err
	}
	wal, err := session.Open(session.Config{Dir: walDir}, at)
	if err != nil {
		return err
	}
	b.replay("session.observe_wal_ns", 1, func() { wal.Observe(obs()) })
	if err := wal.Close(); err != nil {
		return err
	}

	// Recovery of a data directory holding 20000 observations (a snapshot
	// plus the WAL written since), three times.
	var recoverTimes []float64
	for i := 0; i < 3; i++ {
		dir := filepath.Join(b.work, fmt.Sprintf("session-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		m, err := session.Open(session.Config{Dir: dir}, at)
		if err != nil {
			return err
		}
		for j := 0; j < 20000; j++ {
			m.Observe(obs())
		}
		if err := m.Close(); err != nil {
			return err
		}
		sp := b.tr.begin("session.recover", -1, int64(i))
		t0 := time.Now()
		m, err = session.Open(session.Config{Dir: dir}, at)
		recoverTimes = append(recoverTimes, time.Since(t0).Seconds())
		b.tr.end(sp)
		if err != nil {
			return err
		}
		m.Close()
	}
	b.set("session.recover_s", median(recoverTimes))
	return nil
}

// replayMC times whole Monte-Carlo sweeps in the Fig 6 (two receivers)
// and Fig 11 (one receiver, SIC) configurations at range 20 m.
func (b *bench) replayMC(ctx context.Context) error {
	pl, err := phy.NewPathLoss(4, 1, 60)
	if err != nil {
		return err
	}
	cfg := mc.Config{Trials: 10000, Seed: b.seed, Separation: 20, Range: 20,
		PathLoss: pl, Channel: phy.Wifi20MHz, PacketBits: 12000}
	if b.smoke {
		cfg.Trials = 1000
	}
	perTrial := func(name string, f func() error) error {
		var per []float64
		for i := 0; i < 5; i++ {
			sp := b.tr.begin("replay."+name, -1, int64(i))
			t0 := time.Now()
			err := f()
			per = append(per, float64(time.Since(t0).Microseconds())/float64(cfg.Trials))
			b.tr.end(sp)
			if err != nil {
				return err
			}
		}
		b.set(name, median(per))
		return nil
	}
	if err := perTrial("mc.two_receiver_us_per_trial", func() error {
		_, err := mc.TwoReceiverGains(ctx, cfg)
		return err
	}); err != nil {
		return err
	}
	return perTrial("mc.same_receiver_us_per_trial", func() error {
		_, err := mc.SameReceiverGains(ctx, cfg, mc.TechSIC)
		return err
	})
}

// replayKernels times the phy column kernels on 256-element columns (the
// Monte-Carlo engine's block size), topology draws and the pair gain.
func (b *bench) replayKernels(rng *rand.Rand) error {
	const cols = 256
	pl, err := phy.NewPathLoss(4, 1, 60)
	if err != nil {
		return err
	}
	ch := phy.Wifi20MHz
	d, db, s, in, dst := make([]float64, cols), make([]float64, cols), make([]float64, cols), make([]float64, cols), make([]float64, cols)
	for i := range d {
		d[i] = 1 + 29*rng.Float64()
		db[i] = 60 * rng.Float64()
		s[i] = phy.FromDB(db[i])
		in[i] = phy.FromDB(60 * rng.Float64())
	}
	perElem := 1.0 / cols
	b.replay("phy.fromdb_ns_per_elem", perElem, func() { phy.FromDBSlice(dst, db) })
	b.replay("phy.snrat_ns_per_elem", perElem, func() { pl.SNRAtSlice(dst, d) })
	b.replay("phy.sinr_ns_per_elem", perElem, func() { phy.SINRSlice(dst, s, in) })
	b.replay("phy.capacity_ns_per_elem", perElem, func() { ch.CapacitySlice(dst, s) })
	b.replay("phy.txtime_ns_per_elem", perElem, func() { phy.TxTimeSlice(dst, 12000, s) })
	// Bytes each kernel reads and writes per element (8-byte floats):
	// FromDB, SNRAt, Capacity and TxTime read one column and write one;
	// SINR reads two. The mean over the five kernels.
	b.set("phy.bytes_per_elem", float64(16+16+24+16+16)/5)

	trng := rand.New(rand.NewSource(b.seed))
	b.replay("topo.place_two_links_ns", 1, func() { sinkPlacement = topo.PlaceTwoLinks(trng, 20, 20) })
	k := 0
	b.replay("core.pair_gain_ns", 1, func() {
		k++
		sinkFloat = core.Pair{S1: s[k%cols], S2: in[k%cols]}.Gain(ch, 12000)
	})
	return nil
}
