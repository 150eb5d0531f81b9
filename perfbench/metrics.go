package main

import "fmt"

// metricDef declares one printed metric. BENCHMARK.json lists the same
// names, units and directions; main_test.go checks that they agree.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is what a user of each workload sees, measured untraced. Every
// workload prints all of them; what one op is depends on the workload: a
// full figure sweep (figures), a SCHED through the gateway (sched-steady,
// ingest-churn). cpu_us_per_op counts per report sent on ingest-churn,
// where reports are the work.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"p50_ms", "ms", "lower"},
	{"p90_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
}

// figureIDs is every driver experiments.All and Ablations return, in
// suite order; each gets an experiments.<id>_s span metric.
var figureIDs = []string{
	"fig2", "fig3", "fig4", "fig6", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14",
	"ablation-alpha", "ablation-residual", "ablation-greedy",
	"ext-adaptation", "ext-architectures", "ext-load", "ext-phy", "ext-mesh", "ext-region", "ext-triples",
}

// perLayer is what the traced run prints. Each comment names the
// end-to-end metric and workload the layer metric should move.
var perLayer = func() []metricDef {
	var m []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			m = append(m, metricDef{n, unit, better})
		}
	}
	// matching, sched: replays on the workload's per-AP client sets. The
	// no-edit ones move p50_ms/ops_per_s on sched-steady only; the edit
	// and cold ones move p50_ms on ingest-churn.
	for _, n := range []string{"32", "64"} {
		add("lower", "us",
			"matching.warm_noedit_us_n"+n, "matching.warm_alledit_us_n"+n,
			"sched.plan_unchanged_us_n"+n, "sched.plan_one_drift_us_n"+n,
			"sched.plan_all_drift_us_n"+n, "sched.plan_cold_us_n"+n)
	}
	// schedd: direct-shard SCHED round trip (p50_ms on both serving
	// workloads), ingest counters, the ladder and planner split, and the
	// wire codec (cpu_us_per_op on ingest-churn).
	add("lower", "ms", "schedd.sched_rtt_p50_ms", "schedd.sched_rtt_p99_ms")
	add("higher", "count", "schedd.reports_ok", "schedd.served_blossom", "schedd.plan_warm")
	add("lower", "count", "schedd.ingest_shed", "schedd.drop_duplicate", "schedd.served_greedy",
		"schedd.served_serial", "schedd.plan_cold", "schedd.plan_contended", "schedd.query_overload")
	add("higher", "ratio", "schedd.blossom_frac")
	add("lower", "ns", "schedd.decode_ns", "schedd.marshal_ns")
	// session: Observe replayed over the ingest-churn stream, memory-only
	// and WAL-backed (cpu_us_per_op on ingest-churn); recovery (setup_s on
	// ingest-churn); lifecycle counts.
	add("lower", "ns", "session.observe_mem_ns", "session.observe_wal_ns")
	add("lower", "s", "session.recover_s")
	add("lower", "count", "session.cold", "session.resume", "session.roam")
	// gateway: its own share of a SCHED (p50_ms, p90_ms, ops_per_s on
	// sched-steady), the prefix filter (cpu_us_per_op on ingest-churn) and
	// its ingest and fan-out counters.
	add("lower", "ms", "gateway.sched_self_ms")
	add("lower", "ns", "gateway.fast_reject_ns")
	add("higher", "count", "gateway.datagrams", "gateway.forwarded")
	add("lower", "count", "gateway.shed", "gateway.hedges", "gateway.retries", "gateway.shard_err", "gateway.degraded")
	add("lower", "1/op", "gateway.fanout_per_query")
	// experiments, runner, mc, phy, topo, core: all move p50_ms on figures.
	for _, id := range figureIDs {
		add("lower", "s", "experiments."+id+"_s")
	}
	add("lower", "s", "runner.self_s", "mc.sweep_s")
	add("higher", "count", "mc.trials")
	add("higher", "1/s", "mc.trials_per_s")
	add("lower", "us", "mc.two_receiver_us_per_trial", "mc.same_receiver_us_per_trial")
	add("lower", "ns", "phy.fromdb_ns_per_elem", "phy.snrat_ns_per_elem", "phy.sinr_ns_per_elem",
		"phy.capacity_ns_per_elem", "phy.txtime_ns_per_elem")
	add("lower", "B", "phy.bytes_per_elem")
	add("lower", "ns", "topo.place_two_links_ns", "core.pair_gain_ns")
	// proc: per op of the workload (sweep, SCHED, or report on churn).
	add("lower", "B/op", "proc.alloc_bytes_per_op")
	add("lower", "1/op", "proc.gc_cycles")
	add("lower", "cores", "proc.cpu_util")
	// loadgen: how late the generator ran and what it sent.
	add("lower", "ms", "loadgen.lag_p99_ms")
	add("higher", "count", "loadgen.reports_sent", "loadgen.queries_sent")
	add("lower", "ratio", "trace.overhead_frac")
	return m
}()

// metricUnits indexes both tables by name.
var metricUnits = func() map[string]string {
	u := map[string]string{}
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if _, dup := u[m.Name]; dup {
				panic(fmt.Sprintf("perfbench: metric %s declared twice", m.Name))
			}
			u[m.Name] = m.Unit
		}
	}
	return u
}()
