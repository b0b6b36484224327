package ssbyz_test

import (
	"reflect"
	"testing"

	"ssbyz"
)

func TestGenerateRunReplayScenario(t *testing.T) {
	sp := ssbyz.GenerateScenario(7, 7)
	rep, err := ssbyz.RunScenario(sp)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("generated scenario violates the battery: %v", rep.Violations)
	}
	// Replay from the JSON artifact: identical verdict and messages.
	rep2, err := ssbyz.ReplayScenario(sp.Marshal())
	if err != nil {
		t.Fatalf("ReplayScenario: %v", err)
	}
	if !reflect.DeepEqual(rep.Violations, rep2.Violations) {
		t.Fatalf("replay verdict differs: %v vs %v", rep.Violations, rep2.Violations)
	}
	if rep.Report.Messages() != rep2.Report.Messages() {
		t.Fatalf("replay message count differs: %d vs %d",
			rep.Report.Messages(), rep2.Report.Messages())
	}
}

func TestReplayScenarioRejectsGarbage(t *testing.T) {
	if _, err := ssbyz.ReplayScenario([]byte("not json")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ssbyz.ReplayScenario([]byte(`{"n":6,"f":2}`)); err == nil {
		t.Error("n ≤ 3f spec accepted")
	}
}

func TestMinimizeScenarioShrinksFailingSpec(t *testing.T) {
	sp := ssbyz.GenerateScenario(7, 7)
	// A deliberately weakened "checker": any decision at all fails. The
	// minimized spec must still decide something and be no bigger.
	decides := func(c ssbyz.Scenario) bool {
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
	if !decides(sp) {
		t.Skip("generated scenario decided nothing; predicate vacuous")
	}
	min := ssbyz.MinimizeScenario(sp, decides)
	if !decides(min) {
		t.Fatal("minimized scenario no longer fails the predicate")
	}
	if len(min.Adversaries) > len(sp.Adversaries) || len(min.Conditions) > len(sp.Conditions) {
		t.Fatalf("minimize grew the spec: %+v -> %+v", sp, min)
	}
}

func TestFacadeAdversaryCombinatorsHoldTheBattery(t *testing.T) {
	// A composed + staged + adaptive adversary population, driven through
	// the Engine facade: the paper's battery must hold regardless.
	const d = ssbyz.Ticks(1000)
	eng := newEngine(t, ssbyz.WithN(7), ssbyz.WithSeed(3), ssbyz.WithD(d),
		ssbyz.WithFaultyNode(4, ssbyz.ComposeAdversaries(ssbyz.Colluder(), ssbyz.MirrorVoter())),
		ssbyz.WithFaultyNode(5, ssbyz.StagedAdversary(
			ssbyz.AdversaryStage{Adv: ssbyz.Crashed()},
			ssbyz.AdversaryStage{At: 3 * d, Adv: ssbyz.EdgeSupporter()},
		)))
	proposeAt(t, openSession(t, eng, 0), "launch", 2*d)
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Unanimous(0, "launch") {
		t.Fatal("agreement failed under combined adversaries")
	}
	if vs := rep.Check(0); len(vs) != 0 {
		t.Fatalf("battery violations: %v", vs)
	}
}

func TestFacadeAdaptiveAdversaryArms(t *testing.T) {
	eng := newEngine(t, ssbyz.WithN(7), ssbyz.WithSeed(4),
		ssbyz.WithFaultyNode(6, ssbyz.AdaptiveAdversary(0, nil, ssbyz.Colluder())))
	proposeAt(t, openSession(t, eng, 0), "go", 2*eng.Params().D)
	rep, err := eng.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Unanimous(0, "go") {
		t.Fatal("agreement failed under an adaptive colluder")
	}
	if vs := rep.Check(0); len(vs) != 0 {
		t.Fatalf("battery violations: %v", vs)
	}
}

func TestRunScenarioWithExplicitConditions(t *testing.T) {
	// Hand-written spec: a jitter burst over everyone plus a partition
	// that isolates the faulty node mid-attack — the battery must hold.
	pp := ssbyz.GenerateScenario(1, 7).Params()
	d := ssbyz.Time(pp.D)
	sp := ssbyz.Scenario{
		N: 7, Seed: 9, DelayMin: pp.D / 2, DelayMax: pp.D,
		Adversaries: []ssbyz.ScenarioAdversary{{Node: 3, Kind: "yeasayer"}},
		Conditions: []ssbyz.NetworkCondition{
			{Kind: ssbyz.ConditionJitter, From: 0, Until: 10 * d, Jitter: pp.D / 2},
			{Kind: ssbyz.ConditionPartition, From: 3 * d, Until: 8 * d, Nodes: []ssbyz.NodeID{3}},
		},
		Script: []ssbyz.ScenarioInitiation{{At: 2 * d, G: 0, Value: "v"}},
	}
	rep, err := ssbyz.RunScenario(sp)
	if err != nil {
		t.Fatalf("RunScenario: %v", err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("battery violations under conditions: %v", rep.Violations)
	}
}
