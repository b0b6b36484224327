package ssbyz_test

// Tests for the Engine facade: the unified service API and its sentinel
// errors.

import (
	"errors"
	"testing"

	"ssbyz"
)

func TestEngineSentinelErrors(t *testing.T) {
	// n ≤ 3f violates the paper's resilience precondition.
	if _, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithF(3)); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("New(n=7,f=3) error = %v, want ErrBadParams", err)
	}
	if _, err := ssbyz.New(ssbyz.WithSessions(0)); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("WithSessions(0) error = %v, want ErrBadParams", err)
	}
	if _, err := ssbyz.New(ssbyz.WithN(6), ssbyz.WithF(2)); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("New(n=6,f=2) error = %v, want ErrBadParams", err)
	}
	// Faulty ids outside [0, n) name no node; they must not silently
	// consume the fault budget.
	if _, err := ssbyz.New(ssbyz.WithN(4), ssbyz.WithFaultyNode(9, ssbyz.Crashed())); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("WithFaultyNode(9) at n=4 error = %v, want ErrBadParams", err)
	}
	if _, err := ssbyz.New(ssbyz.WithN(4), ssbyz.WithFaultyNode(-1, nil)); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("WithFaultyNode(-1) error = %v, want ErrBadParams", err)
	}
	// The socket runtime's transport name is checked at construction.
	if _, err := ssbyz.New(ssbyz.WithRuntime(ssbyz.SocketRuntime("carrier-pigeon", 0))); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("SocketRuntime(carrier-pigeon) error = %v, want ErrBadParams", err)
	}
	for _, tr := range []string{"", "udp", "tcp"} {
		if _, err := ssbyz.New(ssbyz.WithRuntime(ssbyz.SocketRuntime(tr, 0))); err != nil {
			t.Errorf("SocketRuntime(%q) error = %v, want nil", tr, err)
		}
	}
	// The post-transient start state is a simulator-only scenario.
	if _, err := ssbyz.New(ssbyz.WithTransientFault(1, 1), ssbyz.WithRuntime(ssbyz.SocketRuntime("udp", 0))); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("WithTransientFault on sockets error = %v, want ErrBadParams", err)
	}

	eng, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSessions(2))
	if err != nil {
		t.Fatal(err)
	}
	// The session limit is the configured footnote-9 slot count.
	if _, err := eng.OpenSession(0); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenSession(0); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenSession(0); !errors.Is(err, ssbyz.ErrSessionLimit) {
		t.Errorf("third OpenSession error = %v, want ErrSessionLimit", err)
	}
	// A General is scripted or log-driven, never both.
	if _, err := eng.Log(0); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("Log after OpenSession error = %v, want ErrBadParams", err)
	}
	if _, err := eng.Log(1); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.OpenSession(1); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("OpenSession after Log error = %v, want ErrBadParams", err)
	}
	// Faulty Generals can neither be scripted nor serve logs.
	eng2, _ := ssbyz.New(ssbyz.WithN(7), ssbyz.WithFaultyNode(2, nil))
	if _, err := eng2.OpenSession(2); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("OpenSession(faulty) error = %v, want ErrBadParams", err)
	}
	// Stopped engines accept nothing further.
	eng2.Stop()
	if _, err := eng2.Run(0); !errors.Is(err, ssbyz.ErrStopped) {
		t.Errorf("Run after Stop error = %v, want ErrStopped", err)
	}
	// Simulator engines refuse interactive socket calls.
	eng3, _ := ssbyz.New(ssbyz.WithN(4))
	if err := eng3.Start(); !errors.Is(err, ssbyz.ErrBadParams) {
		t.Errorf("Start on sim runtime error = %v, want ErrBadParams", err)
	}
}

// TestEngineSessionAgreement drives one agreement through the new
// Session API and checks Validity and the battery, mirroring the legacy
// quickstart.
func TestEngineSessionAgreement(t *testing.T) {
	eng, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	d := eng.Params().D
	if err := s.ProposeAt("launch", 2*d); err != nil {
		t.Fatal(err)
	}
	report, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.InitiationErrors()) != 0 {
		t.Fatalf("initiation refused: %v", report.InitiationErrors())
	}
	if !report.Unanimous(0, "launch") {
		t.Fatalf("not unanimous on %q: %v", "launch", report.Decisions(0))
	}
	if got := s.Decisions(report.Report); len(got) != len(report.Decisions(0)) {
		t.Fatalf("session decisions = %d, want %d", len(got), len(report.Decisions(0)))
	}
	if v := report.Check(0); len(v) != 0 {
		t.Fatalf("battery violations: %v", v)
	}
}

// TestEngineReplicatedLog runs the replicated-log facade end to end on
// the simulator: Poisson traffic over 4 concurrent sessions, everything
// commits in a total order, and the per-session battery is clean.
func TestEngineReplicatedLog(t *testing.T) {
	eng, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSessions(4), ssbyz.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	log, err := eng.Log(0)
	if err != nil {
		t.Fatal(err)
	}
	d := eng.Params().D
	if err := log.ProposeAt("genesis", d); err != nil {
		t.Fatal(err)
	}
	if err := log.GenerateTraffic(ssbyz.Traffic{Seed: 5, Start: 2 * d, MeanGap: 4 * d, Count: 10}); err != nil {
		t.Fatal(err)
	}
	report, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	lr := report.Log(0)
	if lr == nil {
		t.Fatal("no log report for General 0")
	}
	st := lr.Stats()
	if st.Committed != 11 || st.Failed != 0 {
		t.Fatalf("committed=%d failed=%d dropped=%d, want 11/0", st.Committed, st.Failed, st.Dropped)
	}
	if lr.Committed()[0].Payload != "genesis" {
		t.Fatalf("log head = %q, want the first proposal", lr.Committed()[0].Payload)
	}
	// Total order: anchors strictly grow entry to entry (Timeliness-4
	// keeps distinct agreements > 4d apart).
	prev := lr.Committed()[0].Anchor
	for _, e := range lr.Committed()[1:] {
		if e.Anchor <= prev {
			t.Fatalf("log order not strictly anchor-ordered at entry %d", e.Index)
		}
		prev = e.Anchor
	}
	if v := report.CheckService(); len(v) != 0 {
		t.Fatalf("service battery violations (%d): %v", len(v), v[0])
	}
	// Run memoizes.
	again, err := eng.Run(0)
	if err != nil || again != report {
		t.Fatalf("second Run = (%p, %v), want the memoized report", again, err)
	}
}

// newEngine builds an engine from opts, failing the test on error.
func newEngine(t testing.TB, opts ...ssbyz.Option) *ssbyz.Engine {
	t.Helper()
	eng, err := ssbyz.New(opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return eng
}

// openSession claims General g's next session on eng, failing the test
// on error.
func openSession(t testing.TB, eng *ssbyz.Engine, g ssbyz.NodeID) *ssbyz.Session {
	t.Helper()
	s, err := eng.OpenSession(g)
	if err != nil {
		t.Fatalf("OpenSession(%d): %v", g, err)
	}
	return s
}

// proposeAt schedules agreement on v at virtual time at in session s,
// failing the test on error.
func proposeAt(t testing.TB, s *ssbyz.Session, v ssbyz.Value, at ssbyz.Ticks) {
	t.Helper()
	if err := s.ProposeAt(v, at); err != nil {
		t.Fatalf("ProposeAt(%q, %d): %v", v, at, err)
	}
}
