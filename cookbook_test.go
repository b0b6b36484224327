package ssbyz_test

// This file pins the README "Scenario cookbook" recipes: each test is the
// corresponding recipe, kept compiling and passing so the documentation
// cannot rot. If a change here is needed, update README.md in the same
// commit.

import (
	"testing"
	"time"

	"ssbyz"
	"ssbyz/internal/clock"
	"ssbyz/internal/ops"
)

// Recipe 1: composite attack — equivocating General who also colludes.
func TestCookbookCompositeAttack(t *testing.T) {
	const d = ssbyz.Ticks(1000)
	eng, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSeed(1), ssbyz.WithD(d),
		ssbyz.WithFaultyNode(5, ssbyz.ComposeAdversaries(
			ssbyz.EquivocatingGeneral(3*d, "left", "right"),
			ssbyz.LateColluder(0, 2*d),
		)))
	if err != nil {
		t.Fatal(err)
	}
	s, err := eng.OpenSession(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ProposeAt("launch", 2*d); err != nil {
		t.Fatal(err)
	}
	report, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Unanimous(0, "launch") {
		t.Fatal("agreement failed under the composite attack")
	}
	if vs := report.Check(0); len(vs) != 0 {
		t.Fatalf("battery violations: %v", vs)
	}
}

// Recipe 2: rolling partition — the network silences the traitor.
func TestCookbookRollingPartition(t *testing.T) {
	d := ssbyz.Time(1000) // default tick value of the paper's d
	sp := ssbyz.Scenario{
		N: 7, Seed: 9,
		Adversaries: []ssbyz.ScenarioAdversary{
			{Node: 5, Kind: "equivocator", Values: []ssbyz.Value{"a", "b"}, At: 3000}},
		Conditions: []ssbyz.NetworkCondition{
			{Kind: ssbyz.ConditionJitter, From: 2 * d, Until: 9 * d, Jitter: 500},
			{Kind: ssbyz.ConditionPartition, From: 5 * d, Until: 11 * d, Nodes: []ssbyz.NodeID{5}},
		},
		Script: []ssbyz.ScenarioInitiation{{At: 2 * d, G: 0, Value: "v"}},
	}
	rep, err := ssbyz.RunScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("battery violations: %v", rep.Violations)
	}
}

// Recipe 3: churn during convergence + staged turncoat.
func TestCookbookChurnWithStagedTurncoat(t *testing.T) {
	sp := ssbyz.Scenario{
		N: 7, Seed: 4,
		Adversaries: []ssbyz.ScenarioAdversary{{
			Node: 6, Kind: "staged",
			Parts: []ssbyz.ScenarioAdversary{
				{Kind: "crash"},              // correct-looking silence…
				{Kind: "yeasayer", At: 4000}, // …then amplifies everything
			}}},
		Conditions: []ssbyz.NetworkCondition{
			{Kind: ssbyz.ConditionChurn, From: 3000, Until: 9000, Nodes: []ssbyz.NodeID{6}}},
		Script: []ssbyz.ScenarioInitiation{{At: 2000, G: 0, Value: "v"}},
	}
	rep, err := ssbyz.RunScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("battery violations: %v", rep.Violations)
	}
}

// Recipe 4: randomized campaign (reduced seed range here; S2 is the real
// thing).
func TestCookbookRandomizedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a mini campaign; skipped in -short")
	}
	for seed := int64(0); seed < 20; seed++ {
		rep, err := ssbyz.RunScenario(ssbyz.GenerateScenario(seed, 7))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(rep.Violations) > 0 {
			t.Fatalf("seed %d: counterexample! %v", seed, rep.Violations)
		}
	}
}

// Recipe 5: minimize + replay (the ssbyz-bench -replay loop, in-process).
func TestCookbookMinimizeAndReplay(t *testing.T) {
	sp := ssbyz.GenerateScenario(3, 7)
	anyDecision := func(c ssbyz.Scenario) bool {
		rep, err := ssbyz.RunScenario(c)
		if err != nil {
			return false
		}
		for _, init := range c.Script {
			if len(rep.Report.DecisionsFor(init.G, init.Value)) > 0 {
				return true
			}
		}
		return false
	}
	if !anyDecision(sp) {
		t.Skip("scenario decided nothing; predicate vacuous")
	}
	min := ssbyz.MinimizeScenario(sp, anyDecision)
	rep, err := ssbyz.ReplayScenario(min.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !anyDecision(rep.Spec) {
		t.Fatal("replayed minimized spec lost the behavior")
	}
}

// Recipe 6: byte-level attacks on the live wire — a virtual-runtime spec
// with a WAN delay matrix, duplication, and a byte corrupter on the
// faulty node's NIC; the per-class counters prove the attacks were
// injected and the battery proves the defenses held.
func TestCookbookLiveWireAttacks(t *testing.T) {
	d := ssbyz.Time(1000) // default tick value of the paper's d
	sp := ssbyz.Scenario{
		N: 4, Seed: 11, Runtime: ssbyz.RuntimeVirtual,
		DelayMin: 2, DelayMax: 20,
		Adversaries: []ssbyz.ScenarioAdversary{{Node: 3, Kind: "yeasayer"}},
		Conditions: []ssbyz.NetworkCondition{
			{Kind: ssbyz.ConditionWAN, From: 0, Until: 100 * d,
				Groups: [][]ssbyz.NodeID{{0, 1}, {2, 3}},
				Matrix: [][]ssbyz.Ticks{{0, 300}, {250, 0}}, Jitter: 100},
			{Kind: ssbyz.ConditionDuplicate, From: 0, Until: 100 * d, Copies: 2},
			{Kind: ssbyz.ConditionCorrupt, From: 0, Until: 100 * d,
				Nodes: []ssbyz.NodeID{3}, Stride: 2},
		},
		Script: []ssbyz.ScenarioInitiation{{At: 2 * d, G: 0, Value: "wan"}},
		RunFor: 100 * ssbyz.Ticks(d),
	}
	rep, err := ssbyz.RunScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("battery violations: %v", rep.Violations)
	}
	if rep.Live == nil {
		t.Fatal("live runtime report missing")
	}
	if rep.Live.Stats.CorruptFrames == 0 || rep.Live.Stats.DupFrames == 0 {
		t.Fatalf("attacks were not injected: %+v", rep.Live.Stats)
	}
}

// Recipe 7: in-situ transient fault — a scripted corruption of a RUNNING
// node mid-run, with the runner measuring re-stabilization against the
// paper's Δstb = 2Δreset budget before a post-window probe agreement.
func TestCookbookInSituTransientFault(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a Δstb-length virtual campaign; skipped in -short")
	}
	sp := ssbyz.Scenario{
		N: 4, Seed: 7, Runtime: ssbyz.RuntimeVirtual,
		DelayMin: 1, DelayMax: 20,
	}
	pp := sp.Params()
	pre := ssbyz.Time(2 * pp.D)
	faultAt := pre + ssbyz.Time(3*pp.DeltaAgr())
	postAt := faultAt + ssbyz.Time(pp.DeltaStb()+pp.D)
	sp.Script = []ssbyz.ScenarioInitiation{
		{At: pre, G: 0, Value: "pre"},
		{At: postAt, G: 2, Value: "post"},
	}
	sp.Faults = []ssbyz.ScenarioFault{{At: faultAt, Node: 1, Seed: 99, SeverityPermille: 1000}}
	sp.RunFor = ssbyz.Ticks(postAt) + 3*pp.DeltaAgr()
	rep, err := ssbyz.RunScenario(sp)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("battery violations: %v", rep.Violations)
	}
	if rep.Live == nil || len(rep.Live.Restab) != 1 {
		t.Fatalf("restab samples missing: %+v", rep.Live)
	}
	rs := rep.Live.Restab[0]
	if rs.Ticks <= 0 || rs.Ticks > pp.DeltaStb() {
		t.Fatalf("re-stabilization %d ticks outside (0, Δstb=%d]", rs.Ticks, pp.DeltaStb())
	}
}

// Recipe 8: rolling replacement as a transient fault — the operations
// campaign under virtual time, judged on the paper's corollary: the
// rolled node re-stabilizes within Δstb = 2Δreset, the old
// incarnation's replay is rejected by every peer, and the
// replicated-log traffic rides through the roll.
func TestCookbookRollingReplacement(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full operations campaign; skipped in -short")
	}
	rep, err := ops.RunCampaign(ops.CampaignConfig{
		Spec:  ops.QuickSpec(4, 2, 250, 7), // n=4, roll node 2, d=250, seed 7
		Clock: clock.NewFake(time.Time{}),  // virtual time: deterministic
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rolls) != 1 {
		t.Fatalf("want 1 roll, got %d", len(rep.Rolls))
	}
	rr := rep.Rolls[0]
	if !rr.WithinDeltaStb {
		t.Fatalf("roll missed the Δstb budget: restab=%d ticks", rr.RestabTicks)
	}
	if rr.EpochDropPeers != rep.Params.N-1 {
		t.Fatalf("old-incarnation replay rejected by %d/%d peers", rr.EpochDropPeers, rep.Params.N-1)
	}
	if rep.Committed != 8 || rep.Failed != 0 || rep.Dropped != 0 {
		t.Fatalf("workload: committed=%d failed=%d dropped=%d", rep.Committed, rep.Failed, rep.Dropped)
	}
}
