package session

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicio"
)

// Config tunes a Manager. Zero values take the defaults noted per field.
type Config struct {
	// Dir is the data directory for snapshot + WAL. Empty disables
	// persistence: the manager is memory-only (identity and roaming still
	// work; restarts start cold).
	Dir string
	// MaxSessions bounds the table; the oldest LastSeen is evicted to
	// admit a new station. Default 4096.
	MaxSessions int
	// HistoryLen caps each session's retained observation history.
	// Default 8.
	HistoryLen int
	// MaxTransfers bounds the applied transfer-ID dedup set (FIFO).
	// Default 1024.
	MaxTransfers int
	// TransferTTL is the age cap on dedup entries: an applied transfer ID
	// older than this is evicted the next time an ID is admitted, so a
	// long-lived shard's dedup set cannot grow (or pin memory) without
	// limit even below MaxTransfers. A replay arriving after its ID aged
	// out is re-applied — the designed bound, not a bug; peers stop
	// retrying long before this. Default 1h.
	TransferTTL time.Duration
	// SnapshotEvery compacts (snapshot + WAL reset) after this many WAL
	// appends. Default 4096.
	SnapshotEvery int
	// ResumeGap is the silence after which a returning station counts as
	// a resume rather than a routine advance. Default 5m.
	ResumeGap time.Duration
}

func (c *Config) fillDefaults() {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.HistoryLen <= 0 {
		c.HistoryLen = 8
	}
	if c.HistoryLen > maxHistoryWire {
		c.HistoryLen = maxHistoryWire
	}
	if c.MaxTransfers <= 0 {
		c.MaxTransfers = 1024
	}
	if c.TransferTTL <= 0 {
		c.TransferTTL = time.Hour
	}
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
	if c.ResumeGap <= 0 {
		c.ResumeGap = 5 * time.Minute
	}
}

// RecoveryStats reports what Open found on disk.
type RecoveryStats struct {
	// SnapshotSessions is how many sessions the snapshot restored.
	SnapshotSessions int
	// SnapshotCorrupt is true when a snapshot file existed but failed
	// validation; recovery degraded to WAL-only.
	SnapshotCorrupt bool
	// WALRecords is how many intact WAL records were replayed.
	WALRecords int
	// WALSkipped counts WAL records whose framing was intact but whose
	// payload failed to decode (version drift); they are skipped.
	WALSkipped int
	// WALTorn is true when a torn tail was truncated away.
	WALTorn bool
}

// Manager owns the durable session table and the per-AP index the
// scheduler reads from it. All methods are safe for concurrent use. The
// manager reads no clocks; callers pass timestamps.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	sessions map[uint32]*entry
	// byAP indexes sessions by their current AP, each slice sorted by
	// station ID; see index.go.
	byAP map[uint32][]*entry
	// transfers is the applied-transfer dedup set, each ID mapped to its
	// admit time (Unix nanos); order is its FIFO eviction queue. Entries
	// are evicted by age (TransferTTL) and by size (MaxTransfers), each
	// eviction counted so a dedup set under pressure is visible.
	transfers        map[uint64]int64
	order            []uint64
	evictedTransfers TransferEvictions
	log              *atomicio.Log // nil when persistence is off
	dirty            int           // WAL appends since last snapshot
	recovery         RecoveryStats
	// appendFailed and compactFailed count WAL errors the manager absorbs
	// to keep serving from memory; atomic so WALFailures needs no lock.
	appendFailed  atomic.Int64
	compactFailed atomic.Int64
}

// TransferEvictions counts dedup-set evictions by cause.
type TransferEvictions struct {
	// Age counts IDs evicted because they outlived TransferTTL.
	Age int64
	// Size counts IDs evicted because the set hit MaxTransfers.
	Size int64
}

const (
	snapshotName = "sessions.snap"
	walName      = "sessions.wal"
)

// Open creates a Manager, recovering prior state from cfg.Dir when set:
// load snapshot (a corrupt one degrades to cold rather than failing
// startup), replay the WAL on top, then immediately compact so the WAL is
// empty and the snapshot current. now is the recovery timestamp used for
// nothing but being passed through to replayed applies that predate it.
func Open(cfg Config, now time.Time) (*Manager, error) {
	cfg.fillDefaults()
	m := &Manager{
		cfg:       cfg,
		sessions:  make(map[uint32]*entry),
		byAP:      make(map[uint32][]*entry),
		transfers: make(map[uint64]int64),
	}
	if cfg.Dir == "" {
		return m, nil
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("session: creating data dir: %w", err)
	}

	snapPath := filepath.Join(cfg.Dir, snapshotName)
	if data, err := os.ReadFile(snapPath); err == nil {
		states, transfers, derr := decodeSnapshot(data)
		if derr != nil {
			m.recovery.SnapshotCorrupt = true
		} else {
			for _, st := range states {
				m.putLocked(st)
			}
			// The snapshot stores IDs without admit times; restored entries
			// age from the recovery timestamp, so they are deduplicated for
			// at least TransferTTL after every restart.
			for _, tr := range transfers {
				m.noteTransferLocked(tr, now.UnixNano())
			}
			m.recovery.SnapshotSessions = len(states)
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("session: reading snapshot: %w", err)
	}

	log, payloads, torn, err := atomicio.OpenLog(filepath.Join(cfg.Dir, walName))
	if err != nil {
		return nil, err
	}
	m.log = log
	m.recovery.WALTorn = torn
	for _, p := range payloads {
		rec, derr := decodeWALRecord(p)
		if derr != nil {
			// Intact framing but undecodable payload: version drift or a
			// writer bug. Recovery keeps going; losing one record beats
			// refusing to start.
			m.recovery.WALSkipped++
			continue
		}
		m.replayLocked(rec)
		m.recovery.WALRecords++
	}

	// Compact immediately: the replayed state becomes the snapshot and the
	// WAL empties, so the next crash replays only post-recovery records.
	if err := m.compactLocked(); err != nil {
		_ = m.log.Close()
		return nil, err
	}
	return m, nil
}

// Recovery returns what Open found on disk.
func (m *Manager) Recovery() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// replayLocked applies one recovered WAL record. Replay reuses the same
// apply paths as live traffic, so it is idempotent: records already
// reflected in the snapshot (at <= LastSeen, or an already-applied
// transfer ID) fall out as stale/duplicate no-ops.
func (m *Manager) replayLocked(rec walRecord) {
	switch rec.kind {
	case walObs:
		m.applyObsLocked(Obs{
			Station:    rec.station,
			AP:         rec.ap,
			Seq:        rec.seq,
			SNRMilliDB: rec.snr,
			At:         time.Unix(0, rec.at),
		})
	case walPairing:
		m.applyPairingLocked(rec.station, rec.partner, rec.level, rec.at)
	case walRemove:
		m.applyRemoveLocked(rec.station, rec.transfer, rec.at)
	case walHandin:
		// The record stores the post-install state (Handoffs already
		// bumped, history already trimmed); install it verbatim.
		m.applyHandinLocked(rec.transfer, rec.state, false, rec.at)
	}
}

// Observe feeds one report through the session table with no serving
// policy, returning what it meant for the station's session. It is Admit
// under the zero Policy.
func (m *Manager) Observe(o Obs) Result { return m.Admit(o, Policy{}) }

// Admit feeds one report through the session table under the serving
// policy p. A report that would add an AP past p.MaxAPs is refused
// (OutcomeRefused) and changes nothing. Applied observations are logged to
// the WAL under the same lock that guards the AP index, so no reader sees
// one before it is logged.
func (m *Manager) Admit(o Obs, p Policy) Result {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.apsFullLocked(o.AP, o.At.UnixNano(), p) {
		return Result{Outcome: OutcomeRefused}
	}
	displaces := m.displacesLocked(o, p)
	res := m.applyObsLocked(o)
	if res.Outcome != OutcomeStale {
		res.Displaced = displaces
		m.appendLocked(encodeObsRecord(o))
	}
	return res
}

// applyObsLocked is the shared live/replay observation path.
func (m *Manager) applyObsLocked(o Obs) Result {
	at := o.At.UnixNano()
	e, ok := m.sessions[o.Station]
	if !ok {
		e = m.putLocked(State{
			Station:    o.Station,
			AP:         o.AP,
			Seq:        o.Seq,
			SNRMilliDB: o.SNRMilliDB,
			FirstSeen:  at,
			LastSeen:   at,
		})
		m.pushHistoryLocked(&e.State, o.SNRMilliDB, at)
		return Result{Outcome: OutcomeNew}
	}
	if at < e.LastSeen {
		return Result{Outcome: OutcomeStale}
	}
	adv, reset := SeqAdvance(e.Seq, o.Seq)
	roamed := o.AP != e.AP
	if !adv && !roamed {
		return Result{Outcome: OutcomeStale}
	}
	var res Result
	gap := at - e.LastSeen
	switch {
	case reset:
		e.Epoch++
		e.Resumes++
		res.Outcome = OutcomeResume
	case roamed:
		res.Outcome = OutcomeRoam
	case gap > int64(m.cfg.ResumeGap):
		e.Resumes++
		res.Outcome = OutcomeResume
	default:
		res.Outcome = OutcomeAdvance
	}
	if adv {
		e.Seq = o.Seq
	}
	if roamed {
		m.unlinkLocked(e)
		e.AP = o.AP
		m.linkLocked(e)
	}
	e.setSNR(o.SNRMilliDB)
	e.LastSeen = at
	m.pushHistoryLocked(&e.State, o.SNRMilliDB, at)
	return res
}

func (m *Manager) pushHistoryLocked(st *State, snrMilliDB int32, at int64) {
	st.History = append(st.History, HistObs{SNRMilliDB: snrMilliDB, At: at})
	if n := len(st.History) - m.cfg.HistoryLen; n > 0 {
		st.History = st.History[n:]
	}
}

// evictOldestLocked drops the session with the oldest LastSeen to admit a
// new station into a full table.
func (m *Manager) evictOldestLocked() {
	var victim *entry
	for _, e := range m.sessions {
		if victim == nil || e.LastSeen < victim.LastSeen ||
			(e.LastSeen == victim.LastSeen && e.Station < victim.Station) {
			victim = e
		}
	}
	m.dropLocked(victim)
}

// NotePairing records the scheduler's latest verdict for a station: who it
// was paired with (0 = solo) and on which ladder rung. Only changes are
// persisted, so steady-state scheduling does not grow the WAL.
func (m *Manager) NotePairing(station, partner uint32, level uint8, at time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.applyPairingLocked(station, partner, level, at.UnixNano()) {
		return false
	}
	m.appendLocked(encodePairingRecord(station, partner, level, at.UnixNano()))
	return true
}

func (m *Manager) applyPairingLocked(station, partner uint32, level uint8, at int64) bool {
	st, ok := m.sessions[station]
	if !ok || (st.LastPartner == partner && st.LastLevel == level) {
		return false
	}
	st.LastPartner = partner
	st.LastLevel = level
	return true
}

// Remove deletes a station's session after a successful hand-off to a
// peer, recording the transfer ID so a late replay of the same transfer
// cannot resurrect it here. Returns whether a session was removed.
func (m *Manager) Remove(station uint32, transfer uint64, at time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.applyRemoveLocked(station, transfer, at.UnixNano()) {
		return false
	}
	m.appendLocked(encodeRemoveRecord(station, transfer, at.UnixNano()))
	return true
}

func (m *Manager) applyRemoveLocked(station uint32, transfer uint64, at int64) bool {
	if _, dup := m.transfers[transfer]; dup {
		return false
	}
	m.noteTransferLocked(transfer, at)
	e, ok := m.sessions[station]
	if !ok {
		return false
	}
	m.dropLocked(e)
	return true
}

// ApplyHandoff installs a session received from a peer daemon. The
// transfer ID makes it idempotent: a replayed transfer (retry after a lost
// ack, or WAL replay) returns applied=false without touching state.
func (m *Manager) ApplyHandoff(transfer uint64, in State, at time.Time) (applied bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.applyHandinLocked(transfer, in, true, at.UnixNano()) {
		return false
	}
	m.appendLocked(encodeHandinRecord(transfer, at.UnixNano(), &m.sessions[in.Station].State))
	return true
}

func (m *Manager) applyHandinLocked(transfer uint64, in State, bump bool, at int64) bool {
	if _, dup := m.transfers[transfer]; dup {
		return false
	}
	m.noteTransferLocked(transfer, at)
	if cur, ok := m.sessions[in.Station]; ok {
		if cur.LastSeen > in.LastSeen {
			// The station already reported here with fresher state than
			// the peer is sending; the transfer is consumed but the newer
			// local session wins.
			return false
		}
		m.dropLocked(cur)
	}
	st := in.clone()
	if bump {
		st.Handoffs++
	}
	if n := len(st.History) - m.cfg.HistoryLen; n > 0 {
		st.History = st.History[n:]
	}
	m.putLocked(st)
	return true
}

// noteTransferLocked admits a transfer ID to the dedup set at time `at`
// (Unix nanos), first evicting entries that outlived TransferTTL and then
// evicting FIFO at the size bound. Admit times are non-decreasing in
// practice (callers pass wall or recovery time), so the FIFO order doubles
// as age order; a backwards caller clock merely prunes less eagerly.
func (m *Manager) noteTransferLocked(tr uint64, at int64) {
	if _, ok := m.transfers[tr]; ok {
		return
	}
	ttl := int64(m.cfg.TransferTTL)
	for len(m.order) > 0 && at-m.transfers[m.order[0]] > ttl {
		delete(m.transfers, m.order[0])
		m.order = m.order[1:]
		m.evictedTransfers.Age++
	}
	if len(m.order) >= m.cfg.MaxTransfers {
		delete(m.transfers, m.order[0])
		m.order = m.order[1:]
		m.evictedTransfers.Size++
	}
	m.transfers[tr] = at
	m.order = append(m.order, tr)
}

// Transfers reports the live dedup-set size and the evictions so far.
func (m *Manager) Transfers() (live int, evicted TransferEvictions) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.transfers), m.evictedTransfers
}

// Get returns a copy of one station's session.
func (m *Manager) Get(station uint32) (State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e, ok := m.sessions[station]
	if !ok {
		return State{}, false
	}
	return e.clone(), true
}

// Sessions returns copies of every session, sorted by station ID.
func (m *Manager) Sessions() []State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessionsLocked()
}

func (m *Manager) sessionsLocked() []State {
	out := make([]State, 0, len(m.sessions))
	for _, e := range m.sessions {
		out = append(out, e.clone())
	}
	slices.SortFunc(out, func(a, b State) int { return cmp.Compare(a.Station, b.Station) })
	return out
}

// Len returns the number of live sessions.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// appendLocked writes one WAL record and compacts at the configured
// cadence. WAL errors are counted (WALFailures) and otherwise absorbed —
// an in-memory session layer that keeps scheduling beats a daemon that
// fails reports because a disk filled.
func (m *Manager) appendLocked(payload []byte) {
	if m.log == nil {
		return
	}
	if err := m.log.Append(payload); err != nil {
		m.appendFailed.Add(1)
		return
	}
	m.dirty++
	if m.dirty >= m.cfg.SnapshotEvery {
		// A failed compaction keeps the WAL; nothing is lost, and the next
		// append retries it.
		if err := m.compactLocked(); err != nil {
			m.compactFailed.Add(1)
		}
	}
}

// WALFailures reports the WAL appends and cadence compactions that failed
// and were absorbed since Open.
func (m *Manager) WALFailures() (appendFailed, compactFailed int64) {
	return m.appendFailed.Load(), m.compactFailed.Load()
}

// compactLocked writes the snapshot atomically, then resets the WAL. A
// crash between the two replays the stale WAL onto the new snapshot, which
// the idempotent apply paths absorb.
func (m *Manager) compactLocked() error {
	if m.log == nil {
		return nil
	}
	data := encodeSnapshot(m.sessionsLocked(), append([]uint64(nil), m.order...))
	if err := atomicio.WriteFile(filepath.Join(m.cfg.Dir, snapshotName), data, 0o644); err != nil {
		return fmt.Errorf("session: writing snapshot: %w", err)
	}
	if err := m.log.Reset(); err != nil {
		return err
	}
	m.dirty = 0
	return nil
}

// Close compacts and closes the WAL. After a clean Close the WAL is empty
// and the snapshot alone restores the table.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	cerr := m.compactLocked()
	if err := m.log.Close(); err != nil {
		return err
	}
	m.log = nil
	return cerr
}

// Kill abandons the manager without snapshotting, as a crash would: the
// WAL keeps whatever was appended. Test hook for crash-recovery coverage.
func (m *Manager) Kill() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return
	}
	// A simulated crash discards close errors by design.
	_ = m.log.Close()
	m.log = nil
}
