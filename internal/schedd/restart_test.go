package schedd

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// schedJSON canonicalises one SCHED reply for cross-restart comparison:
// elapsed_ms is wall time and legitimately differs between runs; every
// other byte of the answer must reproduce. Re-marshalling the map sorts
// the keys, so equal maps give equal bytes.
func schedJSON(t *testing.T, resp map[string]any) string {
	t.Helper()
	if resp["error"] != nil {
		t.Fatalf("SCHED failed: %v", resp["error"])
	}
	delete(resp, "elapsed_ms")
	buf, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return string(buf)
}

func seedStations(t *testing.T, s *Server) {
	t.Helper()
	sendReports(t, s,
		Report{AP: 1, Station: 1, Seq: 10, SNRMilliDB: 30_000},
		Report{AP: 1, Station: 2, Seq: 10, SNRMilliDB: 15_000},
		Report{AP: 1, Station: 3, Seq: 10, SNRMilliDB: 28_000},
		Report{AP: 1, Station: 4, Seq: 10, SNRMilliDB: 14_000},
	)
	waitCounter(t, s, "reports_ok", 4)
}

// TestRestartRecoversSessions: a graceful restart answers the same AP with
// a byte-identical schedule, recovered purely from the snapshot.
func TestRestartRecoversSessions(t *testing.T) {
	dir := t.TempDir()
	s, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seedStations(t, s)
	c := dialQuery(t, s)
	before := schedJSON(t, c.roundTrip(t, "SCHED 1"))
	c.close()
	shutdown(t, s)

	s2, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	if got := s2.SessionEvents().Get("snapshot_restore"); got != 4 {
		t.Fatalf("snapshot_restore = %d, want 4", got)
	}
	if got := s2.SessionEvents().Get("wal_replay"); got != 0 {
		t.Fatalf("wal_replay after clean shutdown = %d, want 0", got)
	}
	c2 := dialQuery(t, s2)
	defer c2.close()
	after := schedJSON(t, c2.roundTrip(t, "SCHED 1"))
	if before != after {
		t.Fatalf("schedule changed across restart:\n before %s\n after  %s", before, after)
	}
	// HEALTH reports the recovered sessions.
	h := c2.roundTrip(t, "HEALTH")
	if got := h["sessions"].(float64); got != 4 {
		t.Fatalf("sessions = %v, want 4", got)
	}
}

// TestKillRecoversFromWAL: an abrupt in-process crash (no snapshot, no
// drain) recovers from WAL replay and still answers identically.
func TestKillRecoversFromWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seedStations(t, s)
	c := dialQuery(t, s)
	before := schedJSON(t, c.roundTrip(t, "SCHED 1"))
	c.close()
	s.Kill()

	s2, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	if got := s2.SessionEvents().Get("wal_replay"); got < 4 {
		t.Fatalf("wal_replay = %d, want >= 4 (one per accepted report)", got)
	}
	rec := s2.SessionRecovery()
	if rec.WALTorn {
		t.Fatal("clean WAL reported torn")
	}
	c2 := dialQuery(t, s2)
	defer c2.close()
	after := schedJSON(t, c2.roundTrip(t, "SCHED 1"))
	if before != after {
		t.Fatalf("schedule changed across crash:\n before %s\n after  %s", before, after)
	}
}

// TestTornWALStartsCleanly: tearing the last WAL record mid-write loses
// only that record; startup still succeeds and the surviving sessions
// schedule.
func TestTornWALStartsCleanly(t *testing.T) {
	dir := t.TempDir()
	s, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	seedStations(t, s)
	s.Kill()

	// Tear the tail: chop bytes off the last record, as a crash mid-write
	// would.
	wal := filepath.Join(dir, "sessions.wal")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("torn WAL failed startup: %v", err)
	}
	defer shutdown(t, s2)
	if got := s2.SessionEvents().Get("wal_torn"); got != 1 {
		t.Fatalf("wal_torn = %d, want 1", got)
	}
	if got := s2.SessionEvents().Get("wal_replay"); got != 3 {
		t.Fatalf("wal_replay = %d, want the 3 intact records", got)
	}
	c := dialQuery(t, s2)
	defer c.close()
	resp := c.roundTrip(t, "SCHED 1")
	if resp["error"] != nil {
		t.Fatalf("SCHED after torn recovery: %v", resp["error"])
	}
	if n := resp["clients"].(float64); n != 3 {
		t.Fatalf("clients = %v, want the 3 recovered stations", n)
	}
}

// TestSeqContinuityAcrossRestart: the recovered session remembers each
// station's sequence position, so a post-restart replay is still a
// duplicate — and a rebooted station restarting at Seq=1 is readmitted
// immediately instead of being locked out.
func TestSeqContinuityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sendReports(t, s, Report{AP: 1, Station: 1, Seq: 500, SNRMilliDB: 30_000})
	waitCounter(t, s, "reports_ok", 1)
	shutdown(t, s)

	s2, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, s2)
	// Replay of the pre-restart report: duplicate, not a fresh client.
	sendReports(t, s2, Report{AP: 1, Station: 1, Seq: 500, SNRMilliDB: 30_000})
	waitCounter(t, s2, "drop_duplicate", 1)
	// Reboot to Seq=1: accepted as an epoch reset, counted as a resume.
	sendReports(t, s2, Report{AP: 1, Station: 1, Seq: 1, SNRMilliDB: 29_000})
	waitCounter(t, s2, "reports_ok", 1)
	if got := s2.SessionEvents().Get("resume"); got != 1 {
		t.Fatalf("resume = %d, want 1", got)
	}
	st, ok := s2.Session(1)
	if !ok {
		t.Fatal("session lost")
	}
	if st.Epoch != 1 || st.Seq != 1 {
		t.Fatalf("post-reboot session = %+v, want epoch 1 seq 1", st)
	}
}

// helperEnv is set when the test binary re-executes itself as a daemon
// process for kill -9 coverage.
const helperEnv = "SCHEDD_HELPER"

func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		helperMain()
		return
	}
	os.Exit(m.Run())
}

// helperMain runs a real daemon in a disposable process: print the bound
// addresses for the parent, then serve until killed.
func helperMain() {
	s, err := Start(Config{DataDir: os.Getenv("SCHEDD_DATA_DIR")})
	if err != nil {
		fmt.Println("ERR", err)
		os.Exit(1)
	}
	fmt.Println("UDP", s.UDPAddr().String())
	fmt.Println("TCP", s.TCPAddr().String())
	select {}
}

// TestKill9Restart: a real SIGKILL of a separate daemon process, then a
// restart on the same data directory, must recover every accepted report
// from the WAL. This is the no-cooperation version of TestKillRecoversFromWAL:
// nothing in the dying process gets to run cleanup.
func TestKill9Restart(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestMain")
	cmd.Env = append(os.Environ(), helperEnv+"=1", "SCHEDD_DATA_DIR="+dir)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	var udpAddr, tcpAddr string
	if _, err := fmt.Fscanf(stdout, "UDP %s\nTCP %s\n", &udpAddr, &tcpAddr); err != nil {
		t.Fatalf("reading helper addresses: %v", err)
	}

	// Feed the daemon over the real wire, then confirm it answers.
	reports := []Report{
		{AP: 1, Station: 1, Seq: 10, SNRMilliDB: 30_000},
		{AP: 1, Station: 2, Seq: 10, SNRMilliDB: 15_000},
	}
	sendReportsTo(t, udpAddr, reports...)
	before := waitSchedAnswer(t, tcpAddr, 1, 2)

	// SIGKILL: no defers, no snapshot, no flush.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	s, err := Start(Config{DataDir: dir})
	if err != nil {
		t.Fatalf("restart after kill -9: %v", err)
	}
	defer shutdown(t, s)
	// At least the two reports (the pre-kill SCHED answer may add pairing
	// records on top).
	if got := s.SessionEvents().Get("wal_replay"); got < 2 {
		t.Fatalf("wal_replay = %d, want >= 2", got)
	}
	c := dialQuery(t, s)
	defer c.close()
	after := schedJSON(t, c.roundTrip(t, "SCHED 1"))
	if before != after {
		t.Fatalf("schedule changed across kill -9:\n before %s\n after  %s", before, after)
	}
}

// sendReportsTo fires reports at an arbitrary UDP address (a daemon in
// another process).
func sendReportsTo(t *testing.T, addr string, reports ...Report) {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for _, r := range reports {
		buf, err := r.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(buf); err != nil {
			t.Fatal(err)
		}
	}
}

// waitSchedAnswer polls SCHED <ap> on an external daemon until it reports
// the expected client count, returning the canonical answer.
func waitSchedAnswer(t *testing.T, addr string, ap uint32, wantClients int) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := externalRoundTrip(addr, fmt.Sprintf("SCHED %d", ap))
		if err == nil && resp["error"] == nil {
			if n, ok := resp["clients"].(float64); ok && int(n) == wantClients {
				return schedJSON(t, resp)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("external daemon never served %d clients (last: %v, err %v)", wantClients, resp, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func externalRoundTrip(addr, cmd string) (map[string]any, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(time.Second)); err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintf(conn, "%s\n", cmd); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(conn)
	var out map[string]any
	if err := dec.Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// TestDurabilityMatrix sanity-checks that equal session states survive the
// three recovery paths identically: clean close, crash, crash+torn tail.
func TestDurabilityMatrix(t *testing.T) {
	build := func(t *testing.T, stop func(*Server)) []uint32 {
		dir := t.TempDir()
		s, err := Start(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		seedStations(t, s)
		stop(s)
		s2, err := Start(Config{DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown(t, s2)
		var ids []uint32
		for sta := uint32(1); sta <= 4; sta++ {
			if _, ok := s2.Session(sta); ok {
				ids = append(ids, sta)
			}
		}
		return ids
	}
	clean := build(t, func(s *Server) { shutdown(t, s) })
	crashed := build(t, func(s *Server) { s.Kill() })
	if !reflect.DeepEqual(clean, crashed) {
		t.Fatalf("recovery differs: clean %v vs crash %v", clean, crashed)
	}
	if len(clean) != 4 {
		t.Fatalf("recovered %d sessions, want 4", len(clean))
	}
}

// TestRestartKeepsServedSet: an AP holding more sessions than MaxClients,
// some of them stale, answers the same SCHED after a graceful restart and
// after a crash. Recovery must not let stale sessions crowd out the fresh
// ones the AP was serving.
func TestRestartKeepsServedSet(t *testing.T) {
	for _, stop := range []struct {
		name string
		fn   func(*Server)
	}{
		{"graceful", func(s *Server) { shutdown(t, s) }},
		{"kill", func(s *Server) { s.Kill() }},
	} {
		t.Run(stop.name, func(t *testing.T) {
			dir := t.TempDir()
			fc := &fakeClock{t: time.Now()}
			cfg := Config{DataDir: dir, MaxClients: 4, TTL: 300 * time.Millisecond, now: fc.Now}
			r := &storeRig{fc: fc}
			var err error
			if r.s, err = Start(cfg); err != nil {
				t.Fatal(err)
			}
			for sta := uint32(1); sta <= 4; sta++ {
				r.report(t, Report{AP: 1, Station: sta, Seq: 1, SNRMilliDB: 10_000 + 1_000*int32(sta)})
			}
			fc.Advance(400 * time.Millisecond)
			r.report(t, Report{AP: 1, Station: 5, Seq: 1, SNRMilliDB: 30_000})
			r.report(t, Report{AP: 1, Station: 6, Seq: 1, SNRMilliDB: 15_000})
			c := dialQuery(t, r.s)
			before := schedJSON(t, c.roundTrip(t, "SCHED 1"))
			c.close()
			stop.fn(r.s)

			s2, err := Start(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown(t, s2)
			c2 := dialQuery(t, s2)
			defer c2.close()
			after := schedJSON(t, c2.roundTrip(t, "SCHED 1"))
			if before != after {
				t.Fatalf("schedule changed across restart:\n before %s\n after  %s", before, after)
			}
			if !strings.Contains(after, `"clients":2`) {
				t.Fatalf("want stations 5 and 6 served, got %s", after)
			}
		})
	}
}
