package ssbyz_test

import (
	"errors"
	"testing"

	"ssbyz"
)

func TestPulseFacade(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(7), ssbyz.WithSeed(11), ssbyz.WithPulseSynchronization(0))
	pp := eng.Params()
	report, err := eng.Run(5 * (pp.Delta0() + 3*pp.DeltaAgr()))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	byCycle := report.Pulses()
	if len(byCycle) < 2 {
		t.Fatalf("cycles pulsed = %d, want ≥ 2", len(byCycle))
	}
	for k, pulses := range byCycle {
		if len(pulses) != 7 {
			t.Errorf("cycle %d: %d pulses, want 7", k, len(pulses))
			continue
		}
		lo, hi := pulses[0].RT, pulses[0].RT
		for _, p := range pulses {
			if p.Cycle != k {
				t.Errorf("pulse cycle mismatch: %d in bucket %d", p.Cycle, k)
			}
			if p.RT < lo {
				lo = p.RT
			}
			if p.RT > hi {
				hi = p.RT
			}
		}
		if skew := int64(hi - lo); skew > 3*int64(pp.D) {
			t.Errorf("cycle %d: skew %d > 3d", k, skew)
		}
	}
}

func TestVerifiedAndDecisionsFor(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(4), ssbyz.WithSeed(12))
	pp := eng.Params()
	t0 := 2 * pp.D
	t1 := t0 + pp.DeltaV() + pp.D
	s := openSession(t, eng, 0)
	proposeAt(t, s, "v", t0)
	proposeAt(t, s, "v", t1) // same value after Δv: legal
	report, err := eng.Run(t1 + 3*pp.DeltaAgr())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errs := report.InitiationErrors(); len(errs) != 0 {
		t.Fatalf("refusals: %v", errs)
	}
	// Two agreements on the same value: 8 decided entries, each initiation
	// individually verified.
	if got := len(report.DecisionsFor(0, "v")); got != 8 {
		t.Errorf("DecisionsFor = %d entries, want 8", got)
	}
	if !report.Verified(0, "v", t0) {
		t.Error("first initiation not verified")
	}
	if !report.Verified(0, "v", t1) {
		t.Error("second initiation not verified")
	}
	if report.Verified(0, "v", t0+50*pp.D) {
		t.Error("Verified accepted a window with no agreement")
	}
	if report.Verified(0, "other", t0) {
		t.Error("Verified accepted a never-agreed value")
	}
	// Unanimous is the single-agreement view: with two returns per node it
	// reports false by design.
	if report.Unanimous(0, "v") {
		t.Error("Unanimous true across recurring agreements")
	}
}

func TestRunIsIdempotent(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(4), ssbyz.WithSeed(13))
	proposeAt(t, openSession(t, eng, 0), "v", 2*eng.Params().D)
	r1, err := eng.Run(0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r2, err := eng.Run(0)
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if r1 != r2 {
		t.Error("second Run produced a different report")
	}
}

func TestDefaultConfigIsSevenNodes(t *testing.T) {
	pp := newEngine(t).Params()
	if pp.N != 7 || pp.F != 2 {
		t.Errorf("defaults = n%d f%d, want n7 f2", pp.N, pp.F)
	}
}

func TestExplicitLowerF(t *testing.T) {
	if f := newEngine(t, ssbyz.WithN(10), ssbyz.WithF(1)).Params().F; f != 1 {
		t.Errorf("F = %d, want 1", f)
	}
}

func TestAdversaryConstructorsRunClean(t *testing.T) {
	// Every adversary constructor wired into one simulation apiece; the
	// run must stay violation-free (n=7 tolerates f=2; use one at a time
	// plus a crashed node).
	d := ssbyz.Ticks(1000)
	advs := map[string]ssbyz.Adversary{
		"crashed":      ssbyz.Crashed(),
		"equivocator":  ssbyz.EquivocatingGeneral(2*d, "a", "b"),
		"partial":      ssbyz.PartialGeneral(2*d, "p", 1, 2, 3),
		"colluder":     ssbyz.Colluder(),
		"lateColluder": ssbyz.LateColluder(0, 3*d),
		"spammer":      ssbyz.Spammer(),
		"replayer":     ssbyz.Replayer(10 * d),
		"echoForger":   ssbyz.EchoForger(0, 1, "f", 1, 2*d),
	}
	for name, adv := range advs {
		name, adv := name, adv
		t.Run(name, func(t *testing.T) {
			eng := newEngine(t, ssbyz.WithN(7), ssbyz.WithSeed(14),
				ssbyz.WithFaultyNode(0, adv), ssbyz.WithFaultyNode(6, ssbyz.Crashed()))
			pp := eng.Params()
			report, err := eng.Run(4 * pp.DeltaAgr())
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for g := 0; g < pp.N; g++ {
				if vs := report.Check(ssbyz.NodeID(g)); len(vs) != 0 {
					t.Errorf("General %d violations: %v", g, vs)
				}
			}
		})
	}
}

func TestConcurrentSlotsFacade(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(7), ssbyz.WithSeed(15), ssbyz.WithSessions(2))
	pp := eng.Params()
	t0 := 2 * pp.D
	sessions := []*ssbyz.Session{openSession(t, eng, 0), openSession(t, eng, 0)}
	proposeAt(t, sessions[0], "a", t0)
	proposeAt(t, sessions[1], "b", t0) // same General, same instant
	report, err := eng.Run(3 * pp.DeltaAgr())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if errs := report.InitiationErrors(); len(errs) != 0 {
		t.Fatalf("refusals: %v", errs)
	}
	for slot, want := range []ssbyz.Value{"a", "b"} {
		decs := sessions[slot].Decisions(report.Report)
		if len(decs) != pp.N {
			t.Errorf("slot %d: %d deciders, want %d", slot, len(decs), pp.N)
		}
		for _, d := range decs {
			if d.Value != want {
				t.Errorf("slot %d: decided %q, want %q", slot, d.Value, want)
			}
		}
	}
}

// TestSlotWithoutIndexedNodesRefused: plain Fig. 1 nodes have one
// invocation slot per General, so a second concurrent session is refused
// (no WithSessions).
func TestSlotWithoutIndexedNodesRefused(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(4), ssbyz.WithSeed(16))
	openSession(t, eng, 0)
	if _, err := eng.OpenSession(0); !errors.Is(err, ssbyz.ErrSessionLimit) {
		t.Errorf("second session on plain nodes: error = %v, want ErrSessionLimit", err)
	}
}
