// Command sicschedd runs the live SIC scheduling daemon: stations stream
// SNR reports in over UDP, access points query schedules out over TCP.
//
// Usage:
//
//	sicschedd -udp 127.0.0.1:5600 -tcp 127.0.0.1:5601
//
// Query protocol (newline-delimited over TCP, one-line JSON replies):
//
//	SCHED <apID>            schedule for the AP's fresh clients
//	HEALTH                  uptime, AP/client occupancy and serving counters
//	HANDOFF <base64>        install a session transferred from a peer daemon
//	MOVE <station> <addr>   hand a station's session off to a peer daemon
//	EPOCH <n>               record the gateway tier's ring epoch
//	QUIT                    close the connection
//
// With -shard the daemon serves as one scheduler shard behind a sicgw
// gateway: HEALTH responses carry the shard name, a per-boot instance
// nonce and the last gateway-pushed ring epoch, which the gateway uses for
// liveness probing and restart detection.
//
// With -data the daemon's client sessions are durable: every accepted
// report lands in a write-ahead log and the session table is periodically
// snapshotted, so a crashed or killed daemon restarts with its pre-crash
// scheduling context (and prints what recovery found).
//
// Every schedule reply records the degradation-ladder rung that produced it
// ("blossom", "greedy" or "serial"); under load the daemon degrades rather
// than stalls. On SIGINT/SIGTERM the daemon drains in-flight queries and
// prints the final counter flush — and per-rung latency quantiles — before
// exiting.
//
// With -admin the daemon additionally serves an HTTP endpoint:
//
//	/metrics       Prometheus text exposition (counters, ladder histograms)
//	/healthz       JSON liveness with AP/client occupancy
//	/debug/pprof/  live profiling
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/sched"
	"repro/internal/schedd"
)

func main() {
	var (
		udpAddr  = flag.String("udp", "127.0.0.1:5600", "UDP address for report ingest")
		tcpAddr  = flag.String("tcp", "127.0.0.1:5601", "TCP address for schedule/health queries")
		pktBits  = flag.Float64("packet-bits", 12000, "uplink packet size in bits")
		powerCtl = flag.Bool("power-control", false, "enable §5.2 per-pair power reduction")
		ttl      = flag.Duration("ttl", 30*time.Second, "client report staleness bound")
		maxCli   = flag.Int("max-clients", 64, "stations scheduled per AP (the most recently seen fresh ones)")
		blossomB = flag.Duration("blossom-budget", 50*time.Millisecond, "optimal-matching time budget")
		greedyB  = flag.Duration("greedy-budget", 10*time.Millisecond, "greedy-matching time budget")
		deadline = flag.Duration("query-deadline", 250*time.Millisecond, "overall per-query deadline")
		inflight = flag.Int("max-inflight", 32, "concurrent query bound before overload shedding")
		drain    = flag.Duration("drain", 5*time.Second, "graceful shutdown drain budget")
		admin    = flag.String("admin", "", "HTTP admin address for /metrics, /healthz and /debug/pprof (empty = disabled)")
		dataDir  = flag.String("data", "", "data directory for durable sessions (empty = memory-only)")
		hoTries  = flag.Int("handoff-attempts", 4, "AP-to-AP handoff attempts before degrading to a cold session")
		hoBack   = flag.Duration("handoff-backoff", 50*time.Millisecond, "initial handoff retry backoff (doubled, jittered, capped)")
		hoMax    = flag.Duration("handoff-max-backoff", time.Second, "handoff retry backoff cap")
		hoTime   = flag.Duration("handoff-timeout", 2*time.Second, "per-attempt handoff deadline")
		shardID  = flag.String("shard", "", "shard name when serving behind a sicgw gateway (echoed in HEALTH)")
	)
	flag.Parse()

	s, err := schedd.Start(schedd.Config{
		UDPAddr: *udpAddr,
		TCPAddr: *tcpAddr,
		Sched: sched.Options{
			Channel:      phy.Wifi20MHz,
			PacketBits:   *pktBits,
			PowerControl: *powerCtl,
		},
		TTL:               *ttl,
		MaxClients:        *maxCli,
		Budgets:           schedd.Budgets{Blossom: *blossomB, Greedy: *greedyB},
		QueryDeadline:     *deadline,
		MaxInflight:       *inflight,
		DataDir:           *dataDir,
		HandoffAttempts:   *hoTries,
		HandoffBackoff:    *hoBack,
		HandoffMaxBackoff: *hoMax,
		HandoffTimeout:    *hoTime,
		ShardID:           *shardID,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sicschedd: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("sicschedd: reports on udp %s, queries on tcp %s\n", s.UDPAddr(), s.TCPAddr())
	if *dataDir != "" {
		rec := s.SessionRecovery()
		fmt.Printf("sicschedd: sessions durable in %s: recovered %d from snapshot, replayed %d WAL records",
			*dataDir, rec.SnapshotSessions, rec.WALRecords)
		if rec.SnapshotCorrupt {
			fmt.Printf(" (snapshot corrupt, degraded to WAL)")
		}
		if rec.WALTorn {
			fmt.Printf(" (torn WAL tail truncated)")
		}
		fmt.Println()
	}

	var adminSrv *http.Server
	if *admin != "" {
		adminSrv = &http.Server{
			Addr: *admin,
			Handler: obs.AdminMux(s.Registry(), func() any {
				aps, clients := s.Occupancy()
				return map[string]any{"status": "ok", "aps": aps, "clients": clients}
			}),
		}
		go func() {
			if err := adminSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(os.Stderr, "sicschedd: admin endpoint: %v\n", err)
			}
		}()
		fmt.Printf("sicschedd: admin endpoint on http://%s/metrics\n", *admin)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "sicschedd: %v, draining for up to %v\n", got, *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	code := 0
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "sicschedd: %v\n", err)
		code = 1
	}
	if adminSrv != nil {
		adminSrv.Close()
	}
	fmt.Printf("sicschedd: final counters: %s\n", s.Counters())
	for _, lvl := range []schedd.Level{schedd.LevelBlossom, schedd.LevelGreedy, schedd.LevelSerial} {
		h := s.LadderHist(lvl)
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("sicschedd: ladder %-7s attempts=%d p50<=%s p90<=%s p99<=%s\n",
			lvl, h.Count(), quantile(h, 0.5), quantile(h, 0.9), quantile(h, 0.99))
	}
	os.Exit(code)
}

// quantile renders a histogram quantile as a duration bound; the histogram
// answers with a bucket upper bound, hence the "<=" framing at the caller.
// An overflow-bucket answer (+Inf) means the rank fell past the last bound.
func quantile(h *obs.Histogram, q float64) string {
	v := h.Quantile(q)
	if math.IsInf(v, 1) {
		return "overflow"
	}
	return time.Duration(v * float64(time.Second)).String()
}
