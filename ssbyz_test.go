package ssbyz_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ssbyz"
)

func TestSimulationQuickstart(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(7), ssbyz.WithSeed(1))
	d := eng.Params().D
	proposeAt(t, openSession(t, eng, 0), "launch", 2*d)
	report, err := eng.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !report.Unanimous(0, "launch") {
		t.Errorf("not unanimous: %+v", report.Decisions(0))
	}
	if vs := report.Check(0); len(vs) != 0 {
		t.Errorf("property violations: %v", vs)
	}
	if vs := report.CheckValidity(0, 2*d, "launch"); len(vs) != 0 {
		t.Errorf("validity violations: %v", vs)
	}
	if report.Messages() == 0 {
		t.Error("no messages counted")
	}
}

func TestSimulationRejectsBadConfig(t *testing.T) {
	cases := []struct{ n, f int }{
		{3, 1},  // violates n > 3f
		{7, 10}, // F above optimal bound
	}
	for _, c := range cases {
		if _, err := ssbyz.New(ssbyz.WithN(c.n), ssbyz.WithF(c.f)); !errors.Is(err, ssbyz.ErrBadParams) {
			t.Errorf("New(n=%d, f=%d) error = %v, want ErrBadParams", c.n, c.f, err)
		}
	}
}

func TestSimulationFaultyGeneralNoSplit(t *testing.T) {
	const d = ssbyz.Ticks(1000)
	eng := newEngine(t, ssbyz.WithN(7), ssbyz.WithSeed(3), ssbyz.WithD(d),
		ssbyz.WithFaultyNode(0, ssbyz.EquivocatingGeneral(2*d, "a", "b")),
		ssbyz.WithFaultyNode(6, ssbyz.Colluder()))
	report, err := eng.Run(5 * eng.Params().DeltaAgr())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if vs := report.Check(0); len(vs) != 0 {
		t.Errorf("violations under equivocation: %v", vs)
	}
	values := make(map[ssbyz.Value]bool)
	for _, dec := range report.Decisions(0) {
		if dec.Decided {
			values[dec.Value] = true
		}
	}
	if len(values) > 1 {
		t.Errorf("value split: %v", values)
	}
}

func TestSimulationTransientRecovery(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(7), ssbyz.WithSeed(4), ssbyz.WithTransientFault(99, 1.0))
	pp := eng.Params()
	// Initiate well after Δstb: the system must have converged by then.
	at := pp.DeltaStb() + 2*pp.D
	proposeAt(t, openSession(t, eng, 0), "recovered", at)
	report, err := eng.Run(at + 3*pp.DeltaAgr())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errs := report.InitiationErrors(); len(errs) != 0 {
		t.Fatalf("initiation refused after Δstb: %v", errs)
	}
	if !report.Unanimous(0, "recovered") {
		t.Errorf("no unanimous agreement after stabilization: %+v", report.Decisions(0))
	}
	if vs := report.CheckValidity(0, at, "recovered"); len(vs) != 0 {
		t.Errorf("validity violations after stabilization: %v", vs)
	}
}

func TestSimulationIG1Refusal(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(4), ssbyz.WithSeed(5))
	d := eng.Params().D
	s := openSession(t, eng, 0)
	proposeAt(t, s, "one", 2*d)
	proposeAt(t, s, "two", 3*d) // < Δ0 after the first
	report, err := eng.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	errs := report.InitiationErrors()
	if len(errs) != 1 {
		t.Fatalf("want exactly 1 refusal, got %v", errs)
	}
	if err, ok := errs[1]; !ok || !strings.Contains(err.Error(), "IG1") {
		t.Errorf("refusal = %v, want IG1 on schedule index 1", errs)
	}
}

func TestRunExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is seconds-long; skipped in -short")
	}
	var sb strings.Builder
	violations, err := ssbyz.RunExperiments(&sb, ssbyz.ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatalf("RunExperiments: %v", err)
	}
	if violations != 0 {
		t.Errorf("suite reported %d violations\n%s", violations, sb.String())
	}
	if !strings.Contains(sb.String(), "## E5 ") {
		t.Error("output missing the headline experiment E5")
	}
}

// TestEngineSocketEndToEnd drives the interactive socket path of the
// Engine over loopback UDP: Start, an immediate Propose, Await for the
// unanimous decision, then the property battery over the wall-clock trace.
func TestEngineSocketEndToEnd(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(4), ssbyz.WithRuntime(ssbyz.SocketRuntime("udp", 0)))
	if err := eng.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer eng.Stop()
	if err := openSession(t, eng, 0).Propose("hello"); err != nil {
		t.Fatalf("Propose: %v", err)
	}
	v, err := eng.Await(0, 10*time.Second)
	if err != nil {
		t.Fatalf("Await: %v", err)
	}
	if v != "hello" {
		t.Errorf("decided %q, want \"hello\"", v)
	}
	if vs := eng.CheckLive(); len(vs) != 0 {
		t.Errorf("battery violations over the socket trace: %v", vs)
	}
}
