package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gateway"
	"repro/internal/schedd"
)

// servingSpec is one serving workload's shape.
type servingSpec struct {
	stations, aps int
	wal           bool // shards keep sessions in a data directory
	// reportRate and queryRate drive the open-loop churn; zero means the
	// closed-loop steady shape (one client, reports refreshed only).
	reportRate, queryRate float64
}

var (
	steadySpec = servingSpec{stations: 256, aps: 4}
	// churnSpec: 512 stations reporting about 4 times a second each, so
	// between two queries for an AP (80 ms apart) about a quarter of its
	// stations move and no SCHED takes the planner's no-edit path. The
	// rate leaves the shards' sockets room to ride out a stalled reader
	// on a 2-vCPU host without dropping reports.
	churnSpec = servingSpec{stations: 512, aps: 8, wal: true, reportRate: 2000, queryRate: 100}
)

const (
	nShards      = 2
	replication  = 2 // the gateway default: owner plus one replica
	servingSetup = 9 // tier boots per run; setup_s is their median
	// steadyRefresh re-sends every station's unchanged report well inside
	// the shards' 30 s staleness TTL.
	steadyRefresh = 10 * time.Second
	ioTimeout     = 5 * time.Second
)

// population is the seeded station set: station i reports to AP 1+i%aps.
// Each AP's SNRs are stratified over 5–35 dB (one draw per equal-width
// band, bands shuffled across stations), so every seed gives every AP the
// same spread of link qualities and seeds differ in the details only.
type population struct {
	aps     int
	station []uint32
	ap      []uint32
	snr     []int32 // milli-dB
}

func newPopulation(seed int64, stations, aps int) population {
	rng := rand.New(rand.NewSource(seed))
	p := population{aps: aps}
	perAP := (stations + aps - 1) / aps
	bands := make([][]int, aps)
	for a := range bands {
		bands[a] = rng.Perm(perAP)
	}
	for i := 0; i < stations; i++ {
		a := i % aps
		band := float64(bands[a][i/aps]) + rng.Float64()
		p.station = append(p.station, uint32(1000+i))
		p.ap = append(p.ap, uint32(1+a))
		p.snr = append(p.snr, int32(5000+30000*band/float64(perAP)))
	}
	return p
}

// members lists each AP's stations, sorted.
func (p population) members() map[uint32][]uint32 {
	m := map[uint32][]uint32{}
	for i, st := range p.station {
		m[p.ap[i]] = append(m[p.ap[i]], st)
	}
	for _, sts := range m {
		slices.Sort(sts)
	}
	return m
}

// reportStream generates the churn report sequence: report k is station
// k%N's next sequence number with its base SNR plus seeded jitter of up to
// ±1 dB. The stream depends only on the seed and k, never on timing.
type reportStream struct {
	pop  population
	rng  *rand.Rand
	k    int
	seq0 uint32
}

func newReportStream(pop population, seed int64, seq0 uint32) *reportStream {
	return &reportStream{pop: pop, rng: rand.New(rand.NewSource(seed ^ 0x5eed)), seq0: seq0}
}

func (s *reportStream) next() schedd.Report {
	n := len(s.pop.station)
	i := s.k % n
	r := schedd.Report{
		AP:         s.pop.ap[i],
		Station:    s.pop.station[i],
		Seq:        s.seq0 + uint32(s.k/n),
		SNRMilliDB: s.pop.snr[i] + int32(s.rng.Intn(2001)-1000),
	}
	s.k++
	return r
}

// inputsHash digests what a serving workload generates from seed: the
// first n datagrams of its report stream after the initial load, and the
// AP sequence of its first n queries. Same seed, same hash.
func inputsHash(seed int64, spec servingSpec, n int) string {
	pop := newPopulation(seed, spec.stations, spec.aps)
	h := sha256.New()
	stream := newReportStream(pop, seed, 2)
	for i := 0; i < n; i++ {
		buf, err := stream.next().Marshal()
		if err != nil {
			panic(err)
		}
		h.Write(buf)
	}
	for k := 0; k < n; k++ {
		fmt.Fprintf(h, "SCHED %d\n", 1+k%pop.aps)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tier is an in-process 2-shard schedd deployment behind one gateway.
type tier struct {
	shards []*schedd.Server
	gw     *gateway.Server
	udp    *net.UDPConn // the load generator's report socket
	sent   int64        // datagrams sent through udp, ever
	down   bool
}

func bootTier(dataDir string) (*tier, error) {
	t := &tier{}
	var addrs []gateway.ShardAddr
	for i := 0; i < nShards; i++ {
		cfg := schedd.Config{ShardID: fmt.Sprintf("shard-%d", i)}
		if dataDir != "" {
			cfg.DataDir = filepath.Join(dataDir, cfg.ShardID)
		}
		s, err := schedd.Start(cfg)
		if err != nil {
			t.shutdown()
			return nil, fmt.Errorf("starting %s: %w", cfg.ShardID, err)
		}
		t.shards = append(t.shards, s)
		addrs = append(addrs, gateway.ShardAddr{Name: cfg.ShardID, TCP: s.TCPAddr().String(), UDP: s.UDPAddr().String()})
	}
	gw, err := gateway.Start(gateway.Config{Shards: addrs, Replication: replication})
	if err != nil {
		t.shutdown()
		return nil, fmt.Errorf("starting gateway: %w", err)
	}
	t.gw = gw
	raddr, err := net.ResolveUDPAddr("udp", gw.UDPAddr().String())
	if err != nil {
		t.shutdown()
		return nil, err
	}
	if t.udp, err = net.DialUDP("udp", nil, raddr); err != nil {
		t.shutdown()
		return nil, err
	}
	return t, nil
}

// shutdown stops the gateway and the shards; calling it again is a no-op.
func (t *tier) shutdown() {
	if t.down {
		return
	}
	t.down = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if t.udp != nil {
		t.udp.Close()
	}
	if t.gw != nil {
		t.gw.Shutdown(ctx)
	}
	for _, s := range t.shards {
		s.Shutdown(ctx)
	}
}

// send writes one report datagram to the gateway.
func (t *tier) send(r schedd.Report) error {
	buf, err := r.Marshal()
	if err != nil {
		return err
	}
	t.sent++
	_, err = t.udp.Write(buf)
	return err
}

// clientsHeld is the number of station entries across every shard table
// (primary and replica namespaces).
func (t *tier) clientsHeld() int {
	n := 0
	for _, s := range t.shards {
		_, c := s.Occupancy()
		n += c
	}
	return n
}

// load sends every station's report with sequence seq, paced so the
// gateway socket never sees a burst, until every shard table holds every
// station; lost reports are re-sent under the next sequence number. It
// returns the next unused sequence number.
func (t *tier) load(pop population, seq uint32) (uint32, error) {
	want := len(pop.station) * replication
	for attempt := 0; attempt < 5; attempt++ {
		for i := range pop.station {
			r := schedd.Report{AP: pop.ap[i], Station: pop.station[i], Seq: seq, SNRMilliDB: pop.snr[i]}
			if err := t.send(r); err != nil {
				return 0, err
			}
			if i%16 == 15 {
				time.Sleep(100 * time.Microsecond)
			}
		}
		seq++
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if t.clientsHeld() >= want {
				return seq, nil
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return 0, fmt.Errorf("shards hold %d of %d station entries after 5 loads", t.clientsHeld(), want)
}

// schedClient is one persistent query connection with a reused read
// buffer: the load generator allocates nothing per query but the reply
// check.
type schedClient struct {
	conn net.Conn
	rd   *bufio.Reader
	line []byte
}

func dialSched(addr string) (*schedClient, error) {
	conn, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	return &schedClient{conn: conn, rd: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// sched sends "SCHED <ap>" and returns the reply line, valid until the
// next call.
func (c *schedClient) sched(ap uint32) ([]byte, error) {
	c.line = strconv.AppendUint(append(c.line[:0], "SCHED "...), uint64(ap), 10)
	c.line = append(c.line, '\n')
	if err := c.conn.SetDeadline(time.Now().Add(ioTimeout)); err != nil {
		return nil, err
	}
	if _, err := c.conn.Write(c.line); err != nil {
		return nil, err
	}
	return c.rd.ReadSlice('\n')
}

func (c *schedClient) close() { c.conn.Close() }

// schedReply is the part of a SCHED reply (gateway or shard) the checks
// read.
type schedReply struct {
	Error    string `json:"error"`
	Degraded bool   `json:"degraded"`
	Clients  int    `json:"clients"`
	Slots    []struct {
		A  uint32  `json:"a"`
		B  uint32  `json:"b"`
		MS float64 `json:"ms"`
	} `json:"slots"`
}

var errReplyFailed = errors.New("failed")

// replyChecker validates SCHED replies against the population. In
// steady mode (sched-steady) the reports never change, so every reply for
// an AP must have the same total cost as the first measured one. The
// slots themselves may differ: the solver's warm-start contract lets a
// tie between equal-cost matchings break differently from solve to solve
// (DESIGN.md), so replies whose slots differ from the first are counted,
// not failed. A reply byte-identical to an already verified one, elapsed
// time excluded, is accepted without decoding.
type replyChecker struct {
	members   map[uint32][]uint32
	identical bool
	refCost   map[uint32]int64
	verified  map[uint32]map[string]bool
	refSlots  map[uint32]string
	flips     int64 // replies whose slots differ from the AP's first
}

func newReplyChecker(pop population, identical bool) *replyChecker {
	return &replyChecker{members: pop.members(), identical: identical,
		refCost: map[uint32]int64{}, verified: map[uint32]map[string]bool{}, refSlots: map[uint32]string{}}
}

// check returns errReplyFailed (wrapped) for an error or degraded reply,
// which counts as a failed op, and any other error for wrong content.
func (c *replyChecker) check(ap uint32, reply []byte) error {
	stripped := reply
	if i := bytes.LastIndex(reply, []byte(`,"elapsed_ms":`)); i >= 0 {
		stripped = reply[:i]
	}
	if c.identical && c.verified[ap][string(stripped)] {
		if string(stripped) != c.refSlots[ap] {
			c.flips++
		}
		return nil
	}
	var r schedReply
	if err := json.Unmarshal(reply, &r); err != nil {
		return fmt.Errorf("ap %d: undecodable reply: %v", ap, err)
	}
	if r.Error != "" {
		return fmt.Errorf("%w: ap %d: %s", errReplyFailed, ap, r.Error)
	}
	if r.Degraded {
		return fmt.Errorf("%w: ap %d: degraded reply", errReplyFailed, ap)
	}
	want := c.members[ap]
	if r.Clients != len(want) {
		return fmt.Errorf("ap %d: %d clients, want %d", ap, r.Clients, len(want))
	}
	var got []uint32
	var costNs int64
	for _, sl := range r.Slots {
		got = append(got, sl.A)
		if sl.B != 0 {
			got = append(got, sl.B)
		}
		costNs += int64(math.Round(sl.MS * 1e6))
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		return fmt.Errorf("ap %d: scheduled stations %v are not each of the AP's %d stations exactly once", ap, got, len(want))
	}
	if !c.identical {
		return nil
	}
	// Slot times reach the wire as float milliseconds; allow each slot
	// its nanosecond of rounding.
	if ref, ok := c.refCost[ap]; !ok {
		c.refCost[ap] = costNs
		c.refSlots[ap] = string(stripped)
	} else if d := costNs - ref; d > int64(len(r.Slots)) || -d > int64(len(r.Slots)) {
		return fmt.Errorf("ap %d: schedule cost %d ns differs from the first reply's %d ns", ap, costNs, ref)
	} else {
		c.flips++
	}
	if c.verified[ap] == nil {
		c.verified[ap] = map[string]bool{}
	}
	if len(c.verified[ap]) < 64 {
		c.verified[ap][string(stripped)] = true
	}
	return nil
}

// verify queries every AP through the gateway until each returns a clean
// reply (the first one per AP is a cold solve).
func (t *tier) verify(chk *replyChecker, aps int) error {
	c, err := dialSched(t.gw.TCPAddr().String())
	if err != nil {
		return err
	}
	defer c.close()
	for ap := uint32(1); ap <= uint32(aps); ap++ {
		var last error
		for try := 0; try < 50; try++ {
			reply, err := c.sched(ap)
			if err != nil {
				return err
			}
			if last = chk.check(ap, reply); last == nil {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if last != nil {
			return fmt.Errorf("set-up: %w", last)
		}
	}
	return nil
}

// servingRun is one serving workload's live state.
type servingRun struct {
	b    *bench
	spec servingSpec
	pop  population
	t    *tier
	chk  *replyChecker
	seq  uint32
	reps *reportStream

	mu          sync.Mutex   // guards tier.sent, the report stream and lag
	lag         []float64    // generator lateness, ns
	reported    atomic.Int64 // churn reports sent by reporter
	sentQueries int64
	stop        chan struct{}
	loadWG      sync.WaitGroup
}

// setupServing boots the tier servingSetup times, timing each boot
// through population load and a clean SCHED from every AP, and returns
// the last tier with every boot's set-up time in seconds.
func (b *bench) setupServing(spec servingSpec) (*servingRun, []float64, error) {
	pop := newPopulation(b.seed, spec.stations, spec.aps)
	var times []float64
	var run *servingRun
	for i := 0; i < servingSetup; i++ {
		if run != nil {
			run.t.shutdown()
		}
		dir := ""
		if spec.wal {
			dir = filepath.Join(b.work, fmt.Sprintf("tier-%d", i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		t, err := bootTier(dir)
		if err != nil {
			return nil, nil, err
		}
		run = &servingRun{b: b, spec: spec, pop: pop, t: t, chk: newReplyChecker(pop, false)}
		if run.seq, err = t.load(pop, 1); err != nil {
			t.shutdown()
			return nil, nil, err
		}
		if err := t.verify(run.chk, spec.aps); err != nil {
			t.shutdown()
			return nil, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	// Set-up ends on each AP's cold solve; a tie between equal-cost
	// matchings may break differently there than in the warm solves that
	// follow, so slot identity is checked from the first measured reply on.
	run.chk.identical = spec.reportRate == 0
	run.reps = newReportStream(pop, b.seed, run.seq)
	return run, times, nil
}

// startLoad starts the workload's background report traffic: the paced
// churn stream, or the steady refresher.
func (r *servingRun) startLoad() {
	r.stop = make(chan struct{})
	r.loadWG.Add(1)
	if r.spec.reportRate > 0 {
		go r.reporter()
	} else {
		go r.refresher()
	}
}

func (r *servingRun) stopLoad() {
	close(r.stop)
	r.loadWG.Wait()
}

// measure runs the workload's query stream through the gateway for d.
func (r *servingRun) measure(d time.Duration) ([]float64, error) {
	return r.queries(r.t.gw.TCPAddr().String(), d, "gateway.sched", true)
}

// probe runs the same query stream straight to shard 0 for d, bypassing
// the gateway, without checking the partial replies.
func (r *servingRun) probe(d time.Duration) ([]float64, error) {
	return r.queries(r.t.shards[0].TCPAddr().String(), d, "schedd.sched", false)
}

// queries runs the workload's query discipline against addr: open loop at
// spec.queryRate, or closed loop.
func (r *servingRun) queries(addr string, d time.Duration, span string, check bool) ([]float64, error) {
	if r.spec.queryRate > 0 {
		return r.openLoop(addr, d, span, check)
	}
	return r.closedLoop(addr, d, span, check)
}

// closedLoop sends SCHED round-robin over the APs to addr, one at a time,
// for d, and returns each query's latency in ns. The time from one reply
// to the next send is the generator's own lag.
func (r *servingRun) closedLoop(addr string, d time.Duration, span string, checkReplies bool) ([]float64, error) {
	c, err := dialSched(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	var lat, gaps []float64
	start := time.Now()
	var last time.Time
	for k := 0; time.Since(start) < d; k++ {
		ap := uint32(1 + k%r.pop.aps)
		r.sentQueries++
		sp := r.b.tr.begin(span, -1, r.sentQueries)
		t0 := time.Now()
		if k > 0 {
			gaps = append(gaps, float64(t0.Sub(last).Nanoseconds()))
		}
		reply, err := c.sched(ap)
		last = time.Now()
		lat = append(lat, float64(last.Sub(t0).Nanoseconds()))
		r.b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if checkReplies {
			r.record(ap, reply)
		}
	}
	r.mu.Lock()
	r.lag = append(r.lag, gaps...)
	r.mu.Unlock()
	return lat, nil
}

// record checks one gateway reply and counts it.
func (r *servingRun) record(ap uint32, reply []byte) {
	r.b.attempted++
	if err := r.chk.check(ap, reply); err != nil {
		if errors.Is(err, errReplyFailed) {
			r.b.failed++
		} else {
			r.b.fail("%v", err)
		}
	}
}

// refresher re-sends every station's unchanged report every
// steadyRefresh until stop closes.
func (r *servingRun) refresher() {
	defer r.loadWG.Done()
	tick := time.NewTicker(steadyRefresh)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.mu.Lock()
			for i := range r.pop.station {
				rep := schedd.Report{AP: r.pop.ap[i], Station: r.pop.station[i], Seq: r.seq, SNRMilliDB: r.pop.snr[i]}
				if err := r.t.send(rep); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: refresh: %v\n", err)
				}
				if i%16 == 15 {
					time.Sleep(100 * time.Microsecond)
				}
			}
			r.seq++
			r.mu.Unlock()
		}
	}
}

// reporter sends the churn report stream open-loop at spec.reportRate,
// spread evenly: it wakes at most every pace and sends what is due, so no
// burst exceeds a few datagrams.
func (r *servingRun) reporter() {
	defer r.loadWG.Done()
	const pace = 500 * time.Microsecond
	interval := time.Duration(float64(time.Second) / r.spec.reportRate)
	start := time.Now()
	var k int64
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		now := time.Now()
		due := int64(now.Sub(start) / interval)
		if due > k {
			r.mu.Lock()
			r.lag = append(r.lag, float64(now.Sub(start)-time.Duration(k+1)*interval))
			for ; k < due; k++ {
				if err := r.t.send(r.reps.next()); err != nil {
					fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
				}
			}
			r.mu.Unlock()
			r.reported.Store(k)
		}
		next := start.Add(time.Duration(k+1) * interval)
		if wait := time.Until(next); wait > 0 {
			if wait < pace {
				wait = pace
			}
			time.Sleep(wait)
		}
	}
}

// openLoop sends SCHED to addr at spec.queryRate for d, each timed from
// when it was due, and returns the latencies in ns.
func (r *servingRun) openLoop(addr string, d time.Duration, span string, check bool) ([]float64, error) {
	c, err := dialSched(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	interval := time.Duration(float64(time.Second) / r.spec.queryRate)
	start := time.Now()
	var lat []float64
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * interval)
		if due.Sub(start) >= d {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		ap := uint32(1 + k%r.pop.aps)
		r.sentQueries++
		sp := r.b.tr.begin(span, -1, r.sentQueries)
		reply, err := c.sched(ap)
		lat = append(lat, float64(time.Since(due).Nanoseconds()))
		r.b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		if check {
			r.record(ap, reply)
		}
	}
	return lat, nil
}
