package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/mc"
	"repro/internal/obs"
	"repro/internal/runner"
)

// figureSuite runs the 20 figure drivers the way "sicfig -all -ablations"
// does and checks each sweep's metrics.json against the first one and, at
// seed 1 and paper scale, against the committed results/metrics.json.
type figureSuite struct {
	b      *bench
	params experiments.Params
	mcm    *mc.Metrics
	reg    *obs.Registry
	out    string
	golden []byte
	first  []byte
	sweeps int64
}

func newFigureSuite(b *bench) (*figureSuite, error) {
	params := experiments.DefaultParams()
	if b.smoke {
		params = experiments.QuickParams()
	}
	params.Seed = b.seed
	reg := obs.NewRegistry()
	params.MC = mc.NewMetrics(reg)
	suite := &figureSuite{b: b, params: params, mcm: params.MC, reg: reg, out: filepath.Join(b.work, "figures")}
	if b.seed == 1 && !b.smoke {
		golden, err := os.ReadFile(filepath.Join(b.root, "results", "metrics.json"))
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// A checkout without the committed figure outputs can still
			// check that every sweep repeats the first.
			fmt.Fprintln(os.Stderr, "perfbench: results/metrics.json is absent; seed-1 byte identity not checked")
		case err != nil:
			return nil, fmt.Errorf("reading the committed metrics: %w", err)
		default:
			suite.golden = golden
		}
	}
	return suite, nil
}

// sweep runs the whole suite once and checks its metrics. With tracing on
// it records a runner.run span with one experiments.<id> child per driver.
func (fs *figureSuite) sweep() error {
	b := fs.b
	fs.sweeps++
	root := b.tr.begin("runner.run", -1, fs.sweeps)
	runners := append(experiments.All(), experiments.Ablations()...)
	for i := range runners {
		id, run := runners[i].ID, runners[i].Run
		runners[i].Run = func(ctx context.Context, p experiments.Params) (experiments.Result, error) {
			sp := b.tr.begin("experiments."+id, root, fs.sweeps)
			defer b.tr.end(sp)
			return run(ctx, p)
		}
	}
	rep, err := runner.Run(context.Background(), runners, runner.Options{
		Params:    fs.params,
		OutDir:    fs.out,
		Retries:   1,
		KeepGoing: true,
		Log:       io.Discard,
		Registry:  fs.reg,
	})
	b.tr.end(root)
	if err != nil {
		return err
	}
	b.attempted++
	if n := rep.Failed(); n > 0 {
		b.failed++
		b.fail("sweep %d: %d figures failed:\n%s", fs.sweeps, n, rep.Render())
		return nil
	}
	blob, err := json.MarshalIndent(rep.Metrics, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if fs.first == nil {
		fs.first = blob
	} else if !bytes.Equal(blob, fs.first) {
		b.fail("sweep %d: metrics.json differs from the first sweep's", fs.sweeps)
	}
	if fs.golden != nil && !bytes.Equal(blob, fs.golden) {
		b.fail("sweep %d: metrics.json differs from results/metrics.json", fs.sweeps)
	}
	return nil
}

// timedSweeps runs sweeps until d has passed (at least one) and returns
// each sweep's wall time in seconds.
func (fs *figureSuite) timedSweeps(d time.Duration) ([]float64, error) {
	var times []float64
	start := time.Now()
	for len(times) == 0 || time.Since(start) < d {
		t0 := time.Now()
		if err := fs.sweep(); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// figureSetups is how many untimed warm-up sweeps make up set-up; setup_s
// is their median.
const figureSetups = 2

func runFigures(b *bench) error {
	fs, err := newFigureSuite(b)
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < figureSetups; i++ {
		t0 := time.Now()
		if err := fs.sweep(); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(setups))

	if !b.traced {
		var ws []window
		for start := time.Now(); len(ws) == 0 || time.Since(start) < b.seconds; {
			w := window{from: sampleProc(), cpuOps: 1}
			if err := fs.sweep(); err != nil {
				return err
			}
			w.to = sampleProc()
			w.lat = []float64{w.to.wall.Sub(w.from.wall).Seconds() * 1e3}
			ws = append(ws, w)
		}
		b.setOpMetrics(ws)
		b.set("peak_rss_mb", peakRSSMB())
		return nil
	}

	untraced, err := fs.timedSweeps(b.seconds / 2)
	if err != nil {
		return err
	}
	from := sampleProc()
	b.tr.on = true
	traced, err := fs.layerSweeps(b.seconds / 2)
	b.tr.on = false
	if err != nil {
		return err
	}
	b.setProc(from, sampleProc(), int64(len(traced)))
	b.set("trace.overhead_frac", median(traced)/median(untraced)-1)
	// The serving layers are idle here; a short sched-steady run measures them.
	pop, err := b.serveLayers()
	if err != nil {
		return err
	}
	return b.replayLayers(pop)
}

// layerSweeps runs traced sweeps for at least d and records the
// experiments, runner and mc per-layer metrics from them.
func (fs *figureSuite) layerSweeps(d time.Duration) ([]float64, error) {
	b := fs.b
	trials0, sweeps0, secs0 := fs.mcm.Trials.Get(), fs.mcm.SweepSeconds.Count(), fs.mcm.SweepSeconds.Sum()
	firstSpan := b.tr.len()
	times, err := fs.timedSweeps(d)
	if err != nil {
		return nil, err
	}
	n := float64(len(times))
	for _, id := range figureIDs {
		b.set("experiments."+id+"_s", median(b.tr.durations("experiments."+id))/1e9)
	}
	// runner.self_s: each suite span minus its driver spans (checkpoints,
	// result files, retries bookkeeping), median over sweeps.
	b.tr.mu.Lock()
	var self []float64
	for i := firstSpan; i < len(b.tr.spans); i++ {
		s := b.tr.spans[i]
		if s.Name != "runner.run" {
			continue
		}
		d := s.End - s.Start
		for _, c := range b.tr.spans[i+1:] {
			if c.Parent == i {
				d -= c.End - c.Start
			}
		}
		self = append(self, float64(d)/1e9)
	}
	b.tr.mu.Unlock()
	b.set("runner.self_s", median(self))
	trials := float64(fs.mcm.Trials.Get() - trials0)
	mcSecs := fs.mcm.SweepSeconds.Sum() - secs0
	b.set("mc.trials", trials/n)
	b.set("mc.sweep_s", mcSecs/float64(fs.mcm.SweepSeconds.Count()-sweeps0))
	b.set("mc.trials_per_s", trials/mcSecs)
	return times, nil
}

// window is one measured stretch of a run: its op latencies (ms), the
// process samples around it and the ops its CPU time is divided by.
type window struct {
	lat      []float64
	from, to procSample
	cpuOps   int64
}

// setOpMetrics records the end-to-end per-op metrics. Latency quantiles
// and rate are medians over the run's windows, so a host stall that
// spoils one window does not move the result. A figures window is one
// sweep, which has no tail of its own: there p90_ms reads the median
// sweep, and the pooled line printed here gives the sweep-time tail with
// its sample count. CPU time, which a stall does not inflate, is the
// run's total over its total ops.
func (b *bench) setOpMetrics(ws []window) {
	var p50, p90, rate, all []float64
	var cpuTotal time.Duration
	var opsTotal int64
	for i, w := range ws {
		q, n := quantiles(w.lat, 0.5, 0.9)
		wall := w.to.wall.Sub(w.from.wall).Seconds()
		perOp := float64((w.to.cpu - w.from.cpu).Microseconds()) / float64(max(w.cpuOps, 1))
		fmt.Printf("window %d: %d samples, p50 %.4f ms, p90 %.4f ms, %.2f ops/s, %.2f us CPU/op\n",
			i, n, q[0], q[1], float64(n)/wall, perOp)
		p50, p90 = append(p50, q[0]), append(p90, q[1])
		rate = append(rate, float64(n)/wall)
		cpuTotal += w.to.cpu - w.from.cpu
		opsTotal += w.cpuOps
		all = append(all, w.lat...)
	}
	pooled, n := quantiles(all, 0.5, 0.9, 0.99)
	fmt.Printf("all windows: %d samples, p50 %.4f ms, p90 %.4f ms, p99 %.4f ms\n", n, pooled[0], pooled[1], pooled[2])
	b.set("p50_ms", median(p50))
	b.set("p90_ms", median(p90))
	b.set("ops_per_s", median(rate))
	b.set("cpu_us_per_op", float64(cpuTotal.Microseconds())/float64(max(opsTotal, 1)))
}
