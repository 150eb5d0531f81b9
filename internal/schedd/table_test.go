package schedd

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/session"
)

// storeRig drives the daemon's session store through its own ingest path,
// synchronously and on a fake clock: each report is decoded, admitted and
// counted exactly as a UDP datagram would be, and the AP views are read
// under the daemon's policy. No datagram reaches the socket, so the decode
// worker stays idle.
type storeRig struct {
	s  *Server
	fc *fakeClock
}

func newStoreRig(t testing.TB, cfg Config) *storeRig {
	t.Helper()
	// Start the fake clock at the real time, so deadlines derived from it
	// (the shutdown nudge) still mean something to the kernel.
	fc := &fakeClock{t: time.Now()}
	cfg.now = fc.Now
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Kill() })
	return &storeRig{s: s, fc: fc}
}

// report ingests r and names what the daemon did with it: "ok", "evicted"
// (ok, and a station was pushed out of the AP's served set), "duplicate"
// or "aps_full".
func (r *storeRig) report(t testing.TB, rep Report) string {
	t.Helper()
	buf, err := rep.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	c := r.s.Counters()
	before := c.Snapshot()
	r.s.ingest(buf)
	for _, o := range []struct{ counter, outcome string }{
		{"table_evictions", "evicted"},
		{"reports_ok", "ok"},
		{"drop_duplicate", "duplicate"},
		{"drop_aps_full", "aps_full"},
	} {
		if c.Get(o.counter) > before[o.counter] {
			return o.outcome
		}
	}
	t.Fatalf("report %+v moved no counter", rep)
	return ""
}

// served lists the stations the AP schedules now, as SCHED reads them.
func (r *storeRig) served(ap uint32) []uint32 {
	_, ids := r.s.sessions.Clients(ap, r.fc.Now(), r.s.policy)
	return ids
}

func TestTableUpsertAndSnapshot(t *testing.T) {
	r := newStoreRig(t, Config{})
	if got := r.report(t, Report{AP: 1, Station: 11, Seq: 1, SNRMilliDB: 15_000}); got != "ok" {
		t.Fatalf("first report: %v", got)
	}
	if got := r.report(t, Report{AP: 1, Station: 10, Seq: 1, SNRMilliDB: 30_000}); got != "ok" {
		t.Fatalf("second report: %v", got)
	}
	clients, ids := r.s.sessions.Clients(1, r.fc.Now(), r.s.policy)
	if !slices.Equal(ids, []uint32{10, 11}) {
		t.Fatalf("ids not sorted: %v", ids)
	}
	if clients[0].ID != "sta10" || clients[1].ID != "sta11" {
		t.Fatalf("client IDs: %+v", clients)
	}
	if clients[0].SNR <= clients[1].SNR {
		t.Fatalf("SNR ordering wrong: %v vs %v", clients[0].SNR, clients[1].SNR)
	}
}

func TestTableDuplicateSuppression(t *testing.T) {
	r := newStoreRig(t, Config{})
	r.report(t, Report{AP: 1, Station: 10, Seq: 5, SNRMilliDB: 30_000})
	if got := r.report(t, Report{AP: 1, Station: 10, Seq: 5, SNRMilliDB: 30_000}); got != "duplicate" {
		t.Fatalf("replay: %v, want duplicate", got)
	}
	if got := r.report(t, Report{AP: 1, Station: 10, Seq: 4, SNRMilliDB: 30_000}); got != "duplicate" {
		t.Fatalf("stale seq: %v, want duplicate", got)
	}
	if got := r.report(t, Report{AP: 1, Station: 10, Seq: 6, SNRMilliDB: 31_000}); got != "ok" {
		t.Fatalf("advancing seq: %v, want ok", got)
	}
	if ids := r.served(1); len(ids) != 1 {
		t.Fatalf("store grew on duplicates: %v", ids)
	}
	if st, _ := r.s.Session(10); st.SNRMilliDB != 31_000 {
		t.Fatalf("duplicate overwrote the report: %+v", st)
	}
}

func TestTableStalenessEviction(t *testing.T) {
	r := newStoreRig(t, Config{TTL: 10 * time.Second})
	r.report(t, Report{AP: 1, Station: 10, Seq: 1, SNRMilliDB: 30_000})
	r.fc.Advance(8 * time.Second)
	r.report(t, Report{AP: 1, Station: 11, Seq: 1, SNRMilliDB: 20_000})
	r.fc.Advance(7 * time.Second)
	if ids := r.served(1); !slices.Equal(ids, []uint32{11}) {
		t.Fatalf("staleness filter failed: ids=%v", ids)
	}
	// Everything stale: the AP itself disappears from the served view.
	r.fc.Advance(time.Hour)
	if ids := r.served(1); len(ids) != 0 {
		t.Fatalf("fully stale AP still schedulable: %v", ids)
	}
	if aps, _ := r.s.Occupancy(); aps != 0 {
		t.Fatalf("stale AP still occupies the store: %d", aps)
	}
}

// TestTableSeqReset: a rebooted station restarting at a low sequence number
// is readmitted at once through the reset window, and the new epoch's next
// report advances normally.
func TestTableSeqReset(t *testing.T) {
	r := newStoreRig(t, Config{TTL: time.Hour})
	r.report(t, Report{AP: 1, Station: 10, Seq: 500, SNRMilliDB: 30_000})
	r.fc.Advance(time.Second)
	if got := r.report(t, Report{AP: 1, Station: 10, Seq: 1, SNRMilliDB: 28_000}); got != "ok" {
		t.Fatalf("rebooted station locked out: %v", got)
	}
	if ids := r.served(1); len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	r.fc.Advance(time.Second)
	if got := r.report(t, Report{AP: 1, Station: 10, Seq: 2, SNRMilliDB: 28_500}); got != "ok" {
		t.Fatalf("post-reset advance dropped: %v", got)
	}
}

// TestTableSeqWraparound: serial comparison keeps dedup working when the
// sequence counter wraps uint32.
func TestTableSeqWraparound(t *testing.T) {
	r := newStoreRig(t, Config{TTL: time.Hour})
	r.report(t, Report{AP: 1, Station: 10, Seq: ^uint32(0) - 1, SNRMilliDB: 30_000})
	r.fc.Advance(time.Second)
	if got := r.report(t, Report{AP: 1, Station: 10, Seq: 3, SNRMilliDB: 30_000}); got != "ok" {
		t.Fatalf("wraparound advance dropped: %v", got)
	}
	r.fc.Advance(time.Second)
	if got := r.report(t, Report{AP: 1, Station: 10, Seq: ^uint32(0), SNRMilliDB: 30_000}); got != "duplicate" {
		t.Fatalf("pre-wrap replay accepted: %v", got)
	}
}

// TestTableOccupancyFresh: health numbers count schedulable clients, not
// expired sessions.
func TestTableOccupancyFresh(t *testing.T) {
	r := newStoreRig(t, Config{TTL: 10 * time.Second})
	r.report(t, Report{AP: 1, Station: 10, Seq: 1, SNRMilliDB: 30_000})
	r.report(t, Report{AP: 2, Station: 12, Seq: 1, SNRMilliDB: 10_000})
	r.fc.Advance(30 * time.Second)
	r.report(t, Report{AP: 1, Station: 11, Seq: 1, SNRMilliDB: 20_000})
	// Station 10 and all of AP 2 are stale.
	r.fc.Advance(5 * time.Second)
	if aps, clients := r.s.Occupancy(); aps != 1 || clients != 1 {
		t.Fatalf("occupancy = (%d aps, %d clients), want (1, 1)", aps, clients)
	}
	if got := r.s.Sessions(); got != 3 {
		t.Fatalf("sessions = %d, want 3 (staleness does not delete)", got)
	}
}

// TestTableRestoreAndRemove: a station leaves an AP's served view when it
// roams away or is handed off to a peer, and a handed-in station is served
// at once.
func TestTableRestoreAndRemove(t *testing.T) {
	r := newStoreRig(t, Config{TTL: time.Hour})
	r.report(t, Report{AP: 1, Station: 10, Seq: 1, SNRMilliDB: 30_000})
	r.report(t, Report{AP: 1, Station: 11, Seq: 1, SNRMilliDB: 20_000})
	r.report(t, Report{AP: 2, Station: 11, Seq: 2, SNRMilliDB: 21_000})
	if ids := r.served(1); !slices.Equal(ids, []uint32{10}) {
		t.Fatalf("roamed station still served at its old AP: %v", ids)
	}
	if ids := r.served(2); !slices.Equal(ids, []uint32{11}) {
		t.Fatalf("roamed station not served at its new AP: %v", ids)
	}
	// Hand-off out: the session and its place in AP 1 go together.
	if !r.s.sessions.Remove(10, 0xA, r.fc.Now()) {
		t.Fatal("remove found no session")
	}
	if ids := r.served(1); len(ids) != 0 {
		t.Fatalf("handed-off station still served: %v", ids)
	}
	// Hand-in: served immediately, with the peer's freshness.
	in := session.State{Station: 12, AP: 1, Seq: 9, SNRMilliDB: 25_000, LastSeen: r.fc.Now().UnixNano()}
	if !r.s.sessions.ApplyHandoff(0xB, in, r.fc.Now()) {
		t.Fatal("hand-in not applied")
	}
	if clients, _ := r.s.sessions.Clients(1, r.fc.Now(), r.s.policy); len(clients) != 1 || clients[0].ID != "sta12" {
		t.Fatalf("handed-in station not served: %v", clients)
	}
	if aps, clients := r.s.Occupancy(); aps != 2 || clients != 2 {
		t.Fatalf("occupancy = (%d, %d), want (2, 2)", aps, clients)
	}
}

// TestSnapshotAllocs pins the query path's allocation budget: the clients
// slice and the ids slice, nothing per station (IDs and linear SNRs are
// computed when a report is accepted).
func TestSnapshotAllocs(t *testing.T) {
	r := newStoreRig(t, Config{TTL: time.Hour})
	for i := uint32(0); i < 24; i++ {
		r.report(t, Report{AP: 1, Station: 100 + i, Seq: 1, SNRMilliDB: int32(10_000 + i)})
	}
	now := r.fc.Now()
	allocs := testing.AllocsPerRun(100, func() {
		clients, ids := r.s.sessions.Clients(1, now, r.s.policy)
		if len(clients) != 24 || len(ids) != 24 {
			t.Fatalf("snapshot shrank: %d/%d", len(clients), len(ids))
		}
	})
	if allocs > 2 {
		t.Fatalf("snapshot allocates %.0f objects per call, budget is 2", allocs)
	}
}

func BenchmarkTableSnapshot(b *testing.B) {
	r := newStoreRig(b, Config{TTL: time.Hour})
	for i := uint32(0); i < 32; i++ {
		r.report(b, Report{AP: 1, Station: 100 + i, Seq: 1, SNRMilliDB: int32(10_000 + i)})
	}
	now := r.fc.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clients, _ := r.s.sessions.Clients(1, now, r.s.policy)
		if len(clients) != 32 {
			b.Fatal("snapshot shrank")
		}
	}
}

func TestTableBoundedClients(t *testing.T) {
	r := newStoreRig(t, Config{TTL: time.Hour, MaxClients: 3})
	for i := uint32(0); i < 3; i++ {
		r.report(t, Report{AP: 1, Station: 10 + i, Seq: 1, SNRMilliDB: 30_000})
		r.fc.Advance(time.Second)
	}
	// A fourth, fresher station displaces the least recently seen (10).
	r.fc.Advance(time.Minute)
	if got := r.report(t, Report{AP: 1, Station: 99, Seq: 1, SNRMilliDB: 25_000}); got != "evicted" {
		t.Fatalf("full-AP report: %v, want evicted", got)
	}
	if ids := r.served(1); !slices.Equal(ids, []uint32{11, 12, 99}) {
		t.Fatalf("served set = %v, want [11 12 99]", ids)
	}
	// A report from a station already served displaces nobody.
	if got := r.report(t, Report{AP: 1, Station: 11, Seq: 2, SNRMilliDB: 25_000}); got != "ok" {
		t.Fatalf("served station's report: %v, want ok", got)
	}
	if aps, clients := r.s.Occupancy(); aps != 1 || clients != 3 {
		t.Fatalf("occupancy = (%d, %d), want (1, 3)", aps, clients)
	}
}

// TestTableBoundedAPs: a report that would add an AP past MaxAPs is
// refused; once an AP's stations go stale it no longer counts.
func TestTableBoundedAPs(t *testing.T) {
	r := newStoreRig(t, Config{TTL: time.Hour, MaxAPs: 2})
	r.report(t, Report{AP: 1, Station: 10, Seq: 1, SNRMilliDB: 30_000})
	r.report(t, Report{AP: 2, Station: 11, Seq: 1, SNRMilliDB: 30_000})
	if got := r.report(t, Report{AP: 3, Station: 12, Seq: 1, SNRMilliDB: 30_000}); got != "aps_full" {
		t.Fatalf("AP budget: %v, want aps_full", got)
	}
	if _, ok := r.s.Session(12); ok {
		t.Fatal("refused report created a session")
	}
	// A report for an AP that already holds a fresh station is not a new AP.
	if got := r.report(t, Report{AP: 2, Station: 13, Seq: 1, SNRMilliDB: 30_000}); got != "ok" {
		t.Fatalf("report for a held AP: %v, want ok", got)
	}
	r.fc.Advance(2 * time.Hour)
	if got := r.report(t, Report{AP: 3, Station: 12, Seq: 1, SNRMilliDB: 30_000}); got != "ok" {
		t.Fatalf("post-staleness AP admit: %v, want ok", got)
	}
}

// TestEvictedSessionNotSchedulable: the MaxSessions evictor and the
// scheduler read one map, so a session evicted to admit a new station is no
// longer scheduled anywhere.
func TestEvictedSessionNotSchedulable(t *testing.T) {
	r := newStoreRig(t, Config{MaxSessions: 2})
	for sta := uint32(1); sta <= 3; sta++ {
		r.report(t, Report{AP: 1, Station: sta, Seq: 1, SNRMilliDB: 20_000 + int32(sta)})
		r.fc.Advance(time.Millisecond)
	}
	if ids := r.served(1); !slices.Equal(ids, []uint32{2, 3}) {
		t.Fatalf("served %v, want [2 3] (station 1's session was evicted)", ids)
	}
	c := dialQuery(t, r.s)
	defer c.close()
	if got := c.roundTrip(t, "SCHED 1")["clients"]; got != 2.0 {
		t.Fatalf("SCHED clients = %v, want 2", got)
	}
}

// TestMaxClientsTieIsDeterministic: stations seen at the same instant rank
// by station ID, whatever order their reports arrived in.
func TestMaxClientsTieIsDeterministic(t *testing.T) {
	for _, order := range [][]uint32{{1, 2, 3}, {3, 2, 1}, {2, 3, 1}, {3, 1, 2}} {
		for run := 0; run < 5; run++ {
			t.Run(fmt.Sprintf("%v/%d", order, run), func(t *testing.T) {
				r := newStoreRig(t, Config{MaxClients: 2})
				for _, sta := range order {
					r.report(t, Report{AP: 1, Station: sta, Seq: 1, SNRMilliDB: 20_000})
				}
				if ids := r.served(1); !slices.Equal(ids, []uint32{1, 2}) {
					t.Fatalf("served %v, want [1 2]", ids)
				}
			})
		}
	}
}
