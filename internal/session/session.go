// Package session is the one store of per-station state under the
// scheduling daemon: per-station identity keyed by station ID (stable
// across address changes and reconnects), the report history and sequence
// epoch a reconnecting client resumes instead of starting cold, the last
// pairing outcome, and — when a data directory is configured — a
// crash-safe snapshot+WAL persistence scheme so a restarted daemon answers
// queries with pre-crash context. The manager also indexes sessions by AP,
// so "who is schedulable at this AP right now" is a read of the same map
// under a caller-supplied Policy (freshness TTL, per-AP and AP budgets).
//
// Persistence contract: every accepted observation is appended to a
// checksummed, length-prefixed write-ahead log (atomicio.Log) as soon as it
// is applied, and the whole session table is periodically compacted into an
// atomically-replaced snapshot (atomicio.WriteFile). Recovery loads the
// snapshot, replays the WAL on top, truncates any torn tail instead of
// failing startup, and is idempotent: replaying records already reflected
// in the snapshot is a no-op, so a crash between snapshot commit and WAL
// reset is safe.
//
// The package reads no clocks: every mutation takes the caller's timestamp,
// so daemons with injected clocks stay exactly as testable as before.
package session

import "time"

// SeqResetWindow bounds the sequence numbers treated as a station reboot.
// A report whose sequence does not advance serially but lies in
// [1, SeqResetWindow] — while the session is already past the window — is
// accepted as an epoch reset rather than dropped as a duplicate, so a
// rebooted station restarting at Seq=1 is not locked out until TTL expiry.
const SeqResetWindow = 8

// SeqAdvance compares report sequence numbers in the RFC 1982 serial-number
// style: newSeq advances oldSeq when their circular distance is in
// (0, 2^31), which keeps dedup working across uint32 wraparound. When the
// serial comparison says "behind" but newSeq is inside the reset window and
// oldSeq is beyond it, the report is classified as a reboot reset
// (advance=true, reset=true): the station restarted its counter and gets a
// fresh epoch. Within-window reordering (oldSeq itself still inside the
// window) stays a duplicate, so early-startup replays are not misread as
// reboots.
func SeqAdvance(oldSeq, newSeq uint32) (advance, reset bool) {
	if newSeq == oldSeq {
		return false, false
	}
	if newSeq-oldSeq < 1<<31 { // circular distance, wrap-safe
		return true, false
	}
	if newSeq >= 1 && newSeq <= SeqResetWindow && oldSeq > SeqResetWindow {
		return true, true
	}
	return false, false
}

// MaxSNRMilliDB mirrors the daemon's wire bound: ±100 dB in milli-dB.
const MaxSNRMilliDB = 100_000

// HistObs is one retained observation of a session's history: the reported
// SNR and when it was accepted (Unix nanoseconds).
type HistObs struct {
	SNRMilliDB int32
	At         int64
}

// State is one station's durable session. It is the unit of snapshot
// persistence and of AP-to-AP handoff: everything a peer daemon needs to
// answer SCHED queries for the station with full context.
type State struct {
	// Station is the stable identity; sessions survive address changes
	// because nothing here is keyed on a network address.
	Station uint32
	// AP is the access point the station currently reports through.
	AP uint32
	// Epoch counts sequence-number resets (station reboots). Seq is the
	// last accepted sequence number within the current epoch.
	Epoch uint32
	Seq   uint32
	// SNRMilliDB is the most recent accepted report.
	SNRMilliDB int32
	// FirstSeen / LastSeen are Unix-nanosecond acceptance times.
	FirstSeen int64
	LastSeen  int64
	// Resumes counts reconnects: epoch resets plus returns after a gap.
	Resumes uint32
	// Handoffs counts AP-to-AP transfers this session has survived.
	Handoffs uint32
	// LastPartner is the station this one was last paired with by the
	// scheduler (0 = solo or never scheduled); LastLevel records the
	// degradation-ladder rung that made the pairing.
	LastPartner uint32
	LastLevel   uint8
	// History holds the most recent accepted observations, oldest first,
	// capped by the manager's HistoryLen.
	History []HistObs
}

// clone returns a deep copy safe to hand outside the manager's lock.
func (st *State) clone() State {
	cp := *st
	cp.History = append([]HistObs(nil), st.History...)
	return cp
}

// Obs is one accepted report, as fed to Manager.Observe.
type Obs struct {
	Station    uint32
	AP         uint32
	Seq        uint32
	SNRMilliDB int32
	At         time.Time
}

// Outcome classifies what Observe did with a report's session.
type Outcome int

const (
	// OutcomeStale: the report did not move the session (replay or
	// out-of-order); nothing was recorded.
	OutcomeStale Outcome = iota
	// OutcomeNew: no session existed; a cold one was created.
	OutcomeNew
	// OutcomeAdvance: the routine case — same AP, sequence advanced.
	OutcomeAdvance
	// OutcomeResume: a reconnect — either a sequence-epoch reset (reboot)
	// or a return after more than ResumeGap of silence. The session's
	// history and epoch carried over instead of starting cold.
	OutcomeResume
	// OutcomeRoam: the station moved to a different AP with its sequence
	// intact; scheduling context followed it.
	OutcomeRoam
	// OutcomeRefused: the report would have added an AP past the serving
	// policy's MaxAPs; nothing was recorded.
	OutcomeRefused
)

var outcomeNames = [...]string{"stale", "new", "advance", "resume", "roam", "refused"}

// String implements fmt.Stringer.
func (o Outcome) String() string {
	if o < 0 || int(o) >= len(outcomeNames) {
		return "unknown"
	}
	return outcomeNames[o]
}

// Result is Admit's full verdict. Displaced is set when the admission
// pushed another station out of its AP's served set (Policy.MaxClients).
type Result struct {
	Outcome   Outcome
	Displaced bool
}
