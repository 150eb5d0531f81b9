package session

import (
	"cmp"
	"slices"
	"strconv"
	"time"

	"repro/internal/phy"
	"repro/internal/sched"
)

// Policy is the serving view's admission and freshness rules. The daemon
// passes its configured values on every call, so the manager holds no
// copy of them; a zero field means "unbounded".
type Policy struct {
	// TTL is the freshness bound: a session whose LastSeen is more than
	// TTL before the query time is not served. Zero serves every session.
	TTL time.Duration
	// MaxClients bounds the stations an AP serves: its MaxClients most
	// recently seen fresh stations, ties broken by lower station ID.
	MaxClients int
	// MaxAPs bounds the APs holding a fresh station: a report that would
	// add one more is refused.
	MaxAPs int
}

// entry is one session plus the scheduler inputs derived from it, kept
// current on every accepted report so queries only copy them.
type entry struct {
	State
	id  string  // "sta<N>"; fixed for the session's life
	snr float64 // linear SNR of State.SNRMilliDB
}

func (e *entry) setSNR(snrMilliDB int32) {
	e.SNRMilliDB = snrMilliDB
	e.snr = phy.FromDB(float64(snrMilliDB) / 1000)
}

// fresh reports whether the session was seen within p.TTL of now (Unix
// nanoseconds).
func (e *entry) fresh(now int64, p Policy) bool {
	return p.TTL <= 0 || now-e.LastSeen <= int64(p.TTL)
}

func byStation(a, b *entry) int { return cmp.Compare(a.Station, b.Station) }

// byRank orders an AP's stations for the MaxClients cut: more recently
// seen first, then lower station ID.
func byRank(a, b *entry) int {
	if c := cmp.Compare(b.LastSeen, a.LastSeen); c != 0 {
		return c
	}
	return byStation(a, b)
}

// putLocked installs st as a new session and indexes it under its AP,
// first evicting the oldest session if the table is full.
func (m *Manager) putLocked(st State) *entry {
	if len(m.sessions) >= m.cfg.MaxSessions {
		m.evictOldestLocked()
	}
	e := &entry{State: st, id: "sta" + strconv.FormatUint(uint64(st.Station), 10)}
	e.setSNR(st.SNRMilliDB)
	m.sessions[st.Station] = e
	m.linkLocked(e)
	return e
}

// dropLocked deletes a session and its index entry.
func (m *Manager) dropLocked(e *entry) {
	m.unlinkLocked(e)
	delete(m.sessions, e.Station)
}

func (m *Manager) linkLocked(e *entry) {
	list := m.byAP[e.AP]
	i, _ := slices.BinarySearchFunc(list, e, byStation)
	m.byAP[e.AP] = slices.Insert(list, i, e)
}

func (m *Manager) unlinkLocked(e *entry) {
	list := m.byAP[e.AP]
	i, found := slices.BinarySearchFunc(list, e, byStation)
	if !found {
		return
	}
	if list = slices.Delete(list, i, i+1); len(list) == 0 {
		delete(m.byAP, e.AP)
	} else {
		m.byAP[e.AP] = list
	}
}

// apsFullLocked reports whether a report for ap would add an AP past
// p.MaxAPs: ap holds no fresh station while MaxAPs other APs do.
func (m *Manager) apsFullLocked(ap uint32, now int64, p Policy) bool {
	fresh := func(e *entry) bool { return e.fresh(now, p) }
	if p.MaxAPs <= 0 || slices.ContainsFunc(m.byAP[ap], fresh) {
		return false
	}
	n := 0
	for _, list := range m.byAP {
		if slices.ContainsFunc(list, fresh) {
			n++
		}
	}
	return n >= p.MaxAPs
}

// displacesLocked reports whether admitting o would push a station out of
// its AP's served set: o's station is outside the set now, is inside it
// afterwards, and the set is already full of other fresh stations.
func (m *Manager) displacesLocked(o Obs, p Policy) bool {
	list := m.byAP[o.AP]
	if p.MaxClients <= 0 || len(list) < p.MaxClients {
		return false
	}
	now := o.At.UnixNano()
	cur, here := m.sessions[o.Station]
	here = here && cur.AP == o.AP && cur.fresh(now, p)
	after := &entry{State: State{Station: o.Station, LastSeen: now}}
	others, aheadNow, aheadAfter := 0, 0, 0
	for _, e := range list {
		if e.Station == o.Station || !e.fresh(now, p) {
			continue
		}
		others++
		if here && byRank(e, cur) < 0 {
			aheadNow++
		}
		if byRank(e, after) < 0 {
			aheadAfter++
		}
	}
	servedNow := here && aheadNow < p.MaxClients
	return !servedNow && aheadAfter < p.MaxClients && others >= p.MaxClients
}

// Clients returns the stations ap serves at now under p, as scheduler
// inputs plus the index-aligned station IDs, in ascending station order so
// equal states give equal schedules. IDs and linear SNRs are precomputed,
// so a query costs the two returned slices.
func (m *Manager) Clients(ap uint32, now time.Time, p Policy) ([]sched.Client, []uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	at := now.UnixNano()
	list := m.byAP[ap]
	if p.MaxClients > 0 && countFresh(list, at, p) > p.MaxClients {
		list = served(list, at, p)
	}
	clients := make([]sched.Client, 0, len(list))
	ids := make([]uint32, 0, len(list))
	for _, e := range list {
		if e.fresh(at, p) {
			clients = append(clients, sched.Client{ID: e.id, SNR: e.snr})
			ids = append(ids, e.Station)
		}
	}
	return clients, ids
}

// served cuts an AP's fresh sessions to its p.MaxClients best
// ranked, returned in station order.
func served(list []*entry, now int64, p Policy) []*entry {
	out := slices.DeleteFunc(slices.Clone(list), func(e *entry) bool { return !e.fresh(now, p) })
	slices.SortFunc(out, byRank)
	out = out[:p.MaxClients]
	slices.SortFunc(out, byStation)
	return out
}

func countFresh(list []*entry, now int64, p Policy) int {
	n := 0
	for _, e := range list {
		if e.fresh(now, p) {
			n++
		}
	}
	return n
}

// Occupancy counts the APs holding a fresh station and the stations they
// serve under p at now.
func (m *Manager) Occupancy(now time.Time, p Policy) (aps, clients int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	at := now.UnixNano()
	for _, list := range m.byAP {
		if n := countFresh(list, at, p); n > 0 {
			aps++
			if p.MaxClients > 0 {
				n = min(n, p.MaxClients)
			}
			clients += n
		}
	}
	return aps, clients
}
