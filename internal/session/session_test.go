package session

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var t0 = time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)

func TestSeqAdvance(t *testing.T) {
	cases := []struct {
		name         string
		old, new     uint32
		advance, rst bool
	}{
		{"equal", 10, 10, false, false},
		{"next", 10, 11, true, false},
		{"big jump", 10, 10_000, true, false},
		{"behind", 10, 9, false, false},
		{"wraparound", ^uint32(0) - 2, 2, true, false},
		{"reboot to 1", 40, 1, true, true},
		{"reboot to window edge", 40, SeqResetWindow, true, true},
		{"behind past window", 40, SeqResetWindow + 1, false, false},
		{"reorder inside window", 5, 3, false, false},
		{"zero never resets", 40, 0, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			adv, rst := SeqAdvance(c.old, c.new)
			if adv != c.advance || rst != c.rst {
				t.Fatalf("SeqAdvance(%d, %d) = (%v, %v), want (%v, %v)",
					c.old, c.new, adv, rst, c.advance, c.rst)
			}
		})
	}
}

func mustOpen(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := Open(cfg, t0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func obs(station, ap, seq uint32, snr int32, at time.Time) Obs {
	return Obs{Station: station, AP: ap, Seq: seq, SNRMilliDB: snr, At: at}
}

func TestObserveLifecycle(t *testing.T) {
	m := mustOpen(t, Config{HistoryLen: 3, ResumeGap: time.Minute})

	if r := m.Observe(obs(7, 1, 10, 12_000, t0)); r.Outcome != OutcomeNew {
		t.Fatalf("first report outcome = %v", r.Outcome)
	}
	if r := m.Observe(obs(7, 1, 11, 12_500, t0.Add(time.Second))); r.Outcome != OutcomeAdvance {
		t.Fatalf("second report outcome = %v", r.Outcome)
	}
	// Replay of seq 11 is stale.
	if r := m.Observe(obs(7, 1, 11, 12_500, t0.Add(2*time.Second))); r.Outcome != OutcomeStale {
		t.Fatalf("replay outcome = %v", r.Outcome)
	}
	// Move to AP 2: roam, and the AP index follows the station.
	if r := m.Observe(obs(7, 2, 12, 9_000, t0.Add(3*time.Second))); r.Outcome != OutcomeRoam {
		t.Fatalf("roam = %+v", r)
	}
	if _, ids := m.Clients(1, t0.Add(3*time.Second), Policy{}); len(ids) != 0 {
		t.Fatalf("roamed station still indexed at its old AP: %v", ids)
	}
	if _, ids := m.Clients(2, t0.Add(3*time.Second), Policy{}); len(ids) != 1 || ids[0] != 7 {
		t.Fatalf("roamed station not indexed at its new AP: %v", ids)
	}
	// Reboot: seq falls back inside the reset window.
	if r := m.Observe(obs(7, 2, 1, 9_100, t0.Add(4*time.Second))); r.Outcome != OutcomeResume {
		t.Fatalf("reboot outcome = %v", r.Outcome)
	}
	st, ok := m.Get(7)
	if !ok {
		t.Fatal("session lost")
	}
	if st.Epoch != 1 || st.Resumes != 1 || st.AP != 2 || st.Seq != 1 {
		t.Fatalf("post-reboot state = %+v", st)
	}
	if st.FirstSeen != t0.UnixNano() {
		t.Fatalf("FirstSeen moved: %d", st.FirstSeen)
	}
	if len(st.History) != 3 {
		t.Fatalf("history len = %d, want capped at 3", len(st.History))
	}
	// Return after a long gap: resume without an epoch reset.
	if r := m.Observe(obs(7, 2, 2, 8_000, t0.Add(10*time.Minute))); r.Outcome != OutcomeResume {
		t.Fatalf("gap return outcome = %v", r.Outcome)
	}
	st, _ = m.Get(7)
	if st.Resumes != 2 || st.Epoch != 1 {
		t.Fatalf("post-gap state = %+v", st)
	}
}

func TestObserveEvictionBound(t *testing.T) {
	m := mustOpen(t, Config{MaxSessions: 4})
	for i := uint32(1); i <= 6; i++ {
		m.Observe(obs(i, 1, 1, 1_000, t0.Add(time.Duration(i)*time.Second)))
	}
	if m.Len() != 4 {
		t.Fatalf("len = %d, want bound 4", m.Len())
	}
	// The oldest stations were evicted; the newest survive.
	if _, ok := m.Get(1); ok {
		t.Fatal("oldest session not evicted")
	}
	if _, ok := m.Get(6); !ok {
		t.Fatal("newest session evicted")
	}
}

func TestSnapshotWALRoundtrip(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir, HistoryLen: 4})
	m.Observe(obs(3, 1, 5, 11_000, t0))
	m.Observe(obs(4, 1, 9, 7_500, t0.Add(time.Second)))
	m.Observe(obs(3, 2, 6, 10_000, t0.Add(2*time.Second)))
	m.NotePairing(3, 4, 1, t0.Add(3*time.Second))
	want := m.Sessions()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, Config{Dir: dir, HistoryLen: 4})
	defer m2.Close()
	rec := m2.Recovery()
	if rec.SnapshotSessions != 2 || rec.WALRecords != 0 || rec.WALTorn || rec.SnapshotCorrupt {
		t.Fatalf("clean-close recovery = %+v, want snapshot-only", rec)
	}
	if got := m2.Sessions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored sessions differ:\n got %+v\nwant %+v", got, want)
	}
	st, _ := m2.Get(3)
	if st.LastPartner != 4 || st.LastLevel != 1 {
		t.Fatalf("pairing outcome lost: %+v", st)
	}
}

func TestKillRecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir})
	m.Observe(obs(5, 1, 1, 4_000, t0))
	m.Observe(obs(5, 1, 2, 4_200, t0.Add(time.Second)))
	want := m.Sessions()
	m.Kill() // no snapshot: recovery must come from the WAL

	m2 := mustOpen(t, Config{Dir: dir})
	defer m2.Close()
	rec := m2.Recovery()
	if rec.WALRecords != 2 || rec.SnapshotSessions != 0 {
		t.Fatalf("kill recovery = %+v, want 2 WAL records", rec)
	}
	if got := m2.Sessions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("WAL recovery differs:\n got %+v\nwant %+v", got, want)
	}
}

func TestTornWALRecovers(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir})
	m.Observe(obs(5, 1, 1, 4_000, t0))
	m.Kill()

	// Tear the tail: append garbage that cannot parse as a frame.
	wal := filepath.Join(dir, walName)
	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xDE, 0xAD}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, Config{Dir: dir})
	defer m2.Close()
	rec := m2.Recovery()
	if !rec.WALTorn || rec.WALRecords != 1 {
		t.Fatalf("torn recovery = %+v, want torn with 1 intact record", rec)
	}
	if _, ok := m2.Get(5); !ok {
		t.Fatal("intact record lost")
	}
}

func TestCrashBetweenSnapshotAndReset(t *testing.T) {
	// A snapshot that already contains the WAL's records (the crash window
	// between snapshot commit and WAL reset) must not double-apply.
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir})
	m.Observe(obs(9, 1, 3, 2_000, t0))
	if err := m.compactLocked(); err != nil { // snapshot now reflects the obs
		t.Fatal(err)
	}
	// Simulate the crash: re-append the same record as if Reset never ran.
	m.appendLocked(encodeObsRecord(obs(9, 1, 3, 2_000, t0)))
	m.Kill()

	m2 := mustOpen(t, Config{Dir: dir})
	defer m2.Close()
	st, ok := m2.Get(9)
	if !ok {
		t.Fatal("session lost")
	}
	if st.Resumes != 0 || st.Epoch != 0 || st.Seq != 3 || len(st.History) != 1 {
		t.Fatalf("stale replay mutated state: %+v", st)
	}
}

func TestApplyHandoffIdempotent(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir})
	in := State{
		Station: 11, AP: 1, Seq: 20, SNRMilliDB: 6_000,
		FirstSeen: t0.UnixNano(), LastSeen: t0.Add(time.Second).UnixNano(),
		History: []HistObs{{SNRMilliDB: 6_000, At: t0.UnixNano()}},
	}
	if !m.ApplyHandoff(42, in, t0.Add(2*time.Second)) {
		t.Fatal("first transfer not applied")
	}
	if m.ApplyHandoff(42, in, t0.Add(3*time.Second)) {
		t.Fatal("replayed transfer applied twice")
	}
	st, _ := m.Get(11)
	if st.Handoffs != 1 {
		t.Fatalf("handoffs = %d, want 1", st.Handoffs)
	}
	m.Kill()

	// Idempotency survives a crash: the handin is in the WAL, so a replay
	// of the same transfer after restart is still a duplicate.
	m2 := mustOpen(t, Config{Dir: dir})
	defer m2.Close()
	if m2.ApplyHandoff(42, in, t0.Add(4*time.Second)) {
		t.Fatal("transfer applied again after restart")
	}
	st, ok := m2.Get(11)
	if !ok {
		t.Fatal("handed-in session lost across restart")
	}
	if st.Handoffs != 1 {
		t.Fatalf("handoffs after restart = %d, want 1", st.Handoffs)
	}
}

func TestApplyHandoffPrefersFresherLocal(t *testing.T) {
	m := mustOpen(t, Config{})
	m.Observe(obs(11, 2, 30, 5_000, t0.Add(time.Minute)))
	stale := State{Station: 11, AP: 1, Seq: 20, LastSeen: t0.UnixNano()}
	if m.ApplyHandoff(43, stale, t0.Add(2*time.Minute)) {
		t.Fatal("stale transfer overwrote fresher local session")
	}
	st, _ := m.Get(11)
	if st.AP != 2 || st.Seq != 30 {
		t.Fatalf("local session mutated: %+v", st)
	}
	// The transfer ID was still consumed.
	if m.ApplyHandoff(43, stale, t0.Add(3*time.Minute)) {
		t.Fatal("consumed transfer applied later")
	}
}

func TestRemoveAfterHandoffOut(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir})
	m.Observe(obs(13, 1, 2, 3_000, t0))
	if !m.Remove(13, 99, t0.Add(time.Second)) {
		t.Fatal("remove did nothing")
	}
	if _, ok := m.Get(13); ok {
		t.Fatal("session survived removal")
	}
	if m.Remove(13, 99, t0.Add(2*time.Second)) {
		t.Fatal("replayed removal reported removed")
	}
	m.Kill()

	m2 := mustOpen(t, Config{Dir: dir})
	defer m2.Close()
	if _, ok := m2.Get(13); ok {
		t.Fatal("removed session resurrected by WAL replay")
	}
}

func TestCorruptSnapshotDegradesToWAL(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir})
	m.Observe(obs(5, 1, 1, 4_000, t0))
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, Config{Dir: dir})
	defer m2.Close()
	rec := m2.Recovery()
	if !rec.SnapshotCorrupt {
		t.Fatal("corruption not reported")
	}
	// The WAL was reset at clean close, so the table is cold — but startup
	// succeeded and the rewritten snapshot is valid again.
	if m2.Len() != 0 {
		t.Fatalf("sessions from corrupt snapshot: %d", m2.Len())
	}
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}
	m3 := mustOpen(t, Config{Dir: dir})
	defer m3.Close()
	if m3.Recovery().SnapshotCorrupt {
		t.Fatal("snapshot not healed by compaction")
	}
}

func TestCompactionCadence(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir, SnapshotEvery: 3})
	for i := uint32(1); i <= 7; i++ {
		m.Observe(obs(20, 1, i, 1_000, t0.Add(time.Duration(i)*time.Second)))
	}
	// 7 appends with SnapshotEvery=3: compacted at 3 and 6, one record left.
	if got := m.log.Records(); got != 1 {
		t.Fatalf("WAL records after cadence compaction = %d, want 1", got)
	}
	m.Kill()
	m2 := mustOpen(t, Config{Dir: dir})
	defer m2.Close()
	st, ok := m2.Get(20)
	if !ok || st.Seq != 7 {
		t.Fatalf("recovered seq = %+v, want 7", st)
	}
}

func TestHandoffCodecRoundtrip(t *testing.T) {
	st := State{
		Station: 77, AP: 3, Epoch: 2, Seq: 1234, SNRMilliDB: -15_000,
		FirstSeen: t0.UnixNano(), LastSeen: t0.Add(time.Hour).UnixNano(),
		Resumes: 3, Handoffs: 1, LastPartner: 78, LastLevel: 2,
		History: []HistObs{
			{SNRMilliDB: -15_200, At: t0.UnixNano()},
			{SNRMilliDB: -15_000, At: t0.Add(time.Minute).UnixNano()},
		},
	}
	buf := EncodeHandoff(0xDEADBEEFCAFE, st)
	tr, got, err := DecodeHandoff(buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr != 0xDEADBEEFCAFE {
		t.Fatalf("transfer = %#x", tr)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("roundtrip:\n got %+v\nwant %+v", got, st)
	}

	// Every byte matters: flipping any one must fail decode.
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xFF
		if _, _, err := DecodeHandoff(mut); err == nil {
			t.Fatalf("flip at byte %d still decoded", i)
		}
	}
}

func FuzzDecodeHandoff(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeHandoff(1, State{Station: 1, AP: 1, LastSeen: 5}))
	f.Add(EncodeHandoff(^uint64(0), State{
		Station: 9, AP: 2, Seq: 3, History: []HistObs{{SNRMilliDB: 1, At: 2}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, st, err := DecodeHandoff(data)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to the identical message.
		if got := EncodeHandoff(tr, st); string(got) != string(data) {
			t.Fatalf("decode/encode not a fixed point:\n in  %x\n out %x", data, got)
		}
		if st.Station == 0 || st.Station == ^uint32(0) {
			t.Fatalf("invalid station %d decoded", st.Station)
		}
		if st.SNRMilliDB > MaxSNRMilliDB || st.SNRMilliDB < -MaxSNRMilliDB {
			t.Fatalf("out-of-range SNR %d decoded", st.SNRMilliDB)
		}
	})
}

func FuzzDecodeWALRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(encodeObsRecord(obs(1, 1, 1, 100, t0)))
	f.Add(encodePairingRecord(1, 2, 1, t0.UnixNano()))
	f.Add(encodeRemoveRecord(1, 42, t0.UnixNano()))
	f.Add(encodeHandinRecord(42, t0.UnixNano(), &State{Station: 1, AP: 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeWALRecord(data)
		if err != nil {
			return
		}
		switch rec.kind {
		case walObs, walPairing, walRemove:
		case walHandin:
			if rec.state.Station == 0 || rec.state.Station == ^uint32(0) {
				t.Fatalf("invalid station %d in handin", rec.state.Station)
			}
		default:
			t.Fatalf("decoded unknown kind %d", rec.kind)
		}
	})
}

// handin returns a minimal valid transfer state for station.
func handin(station uint32, at time.Time) State {
	return State{Station: station, AP: 1, Seq: 5, SNRMilliDB: 4_000,
		FirstSeen: at.UnixNano(), LastSeen: at.UnixNano()}
}

func TestTransferDedupSizeCap(t *testing.T) {
	m := mustOpen(t, Config{MaxTransfers: 2})
	for i := uint64(1); i <= 3; i++ {
		if !m.ApplyHandoff(i, handin(uint32(i), t0), t0.Add(time.Duration(i)*time.Second)) {
			t.Fatalf("transfer %d not applied", i)
		}
	}
	live, ev := m.Transfers()
	if live != 2 || ev.Size != 1 || ev.Age != 0 {
		t.Fatalf("after overflow: live=%d evictions=%+v, want live=2 size=1 age=0", live, ev)
	}
	// Dedup-after-eviction is the designed bound: transfer 1 fell off the
	// FIFO, so its replay is re-applied rather than suppressed...
	if !m.ApplyHandoff(1, handin(1, t0), t0.Add(10*time.Second)) {
		t.Fatal("replay of evicted transfer 1 was still deduplicated")
	}
	// ...while an ID inside the bound keeps deduplicating.
	if m.ApplyHandoff(3, handin(3, t0), t0.Add(11*time.Second)) {
		t.Fatal("in-bound transfer 3 applied twice")
	}
}

func TestTransferDedupAgeCap(t *testing.T) {
	m := mustOpen(t, Config{MaxTransfers: 1024, TransferTTL: time.Minute})
	if !m.ApplyHandoff(7, handin(7, t0), t0) {
		t.Fatal("first transfer not applied")
	}
	// Within TTL: still a duplicate.
	if m.ApplyHandoff(7, handin(7, t0), t0.Add(30*time.Second)) {
		t.Fatal("in-TTL replay applied")
	}
	// A later admit past the TTL prunes the aged entry...
	if !m.ApplyHandoff(8, handin(8, t0), t0.Add(2*time.Minute)) {
		t.Fatal("fresh transfer not applied")
	}
	live, ev := m.Transfers()
	if live != 1 || ev.Age != 1 || ev.Size != 0 {
		t.Fatalf("after age prune: live=%d evictions=%+v, want live=1 age=1 size=0", live, ev)
	}
	// ...so a replay of the evicted ID is re-applied: dedup after eviction
	// degrades to re-apply by design.
	if !m.ApplyHandoff(7, handin(7, t0), t0.Add(3*time.Minute)) {
		t.Fatal("replay of aged-out transfer was still deduplicated")
	}
}

func TestTransferDedupAgesFromRecovery(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir, TransferTTL: time.Minute})
	if !m.ApplyHandoff(9, handin(9, t0), t0) {
		t.Fatal("transfer not applied")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The snapshot stores IDs without times; a restart re-admits them at
	// the recovery timestamp, so they dedup for at least TTL afterwards.
	m2, err := Open(Config{Dir: dir, TransferTTL: time.Minute}, t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if m2.ApplyHandoff(9, handin(9, t0), t0.Add(time.Hour+30*time.Second)) {
		t.Fatal("restored transfer ID no longer deduplicates after restart")
	}
}

// TestWALFailuresCounted: WAL errors the manager absorbs to keep serving
// from memory are counted, not hidden.
func TestWALFailuresCounted(t *testing.T) {
	dir := t.TempDir()
	m := mustOpen(t, Config{Dir: dir, SnapshotEvery: 1})
	// A directory where the snapshot belongs makes every compaction's
	// rename fail; the appends themselves still land.
	snap := filepath.Join(dir, snapshotName)
	if err := os.Remove(snap); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(snap, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	m.Observe(obs(1, 1, 1, 10_000, t0))
	if a, c := m.WALFailures(); a != 0 || c != 1 {
		t.Fatalf("after a failed compaction: (append %d, compact %d), want (0, 1)", a, c)
	}
	// Close the log under the manager: appends now fail, and the report is
	// still applied in memory.
	if err := m.log.Close(); err != nil {
		t.Fatal(err)
	}
	if r := m.Observe(obs(2, 1, 1, 10_000, t0.Add(time.Second))); r.Outcome != OutcomeNew {
		t.Fatalf("outcome = %v, want new", r.Outcome)
	}
	m.NotePairing(2, 1, 0, t0.Add(time.Second))
	if a, c := m.WALFailures(); a != 2 || c != 1 {
		t.Fatalf("after a closed log: (append %d, compact %d), want (2, 1)", a, c)
	}
	if m.Len() != 2 {
		t.Fatalf("len = %d, want 2", m.Len())
	}
}
