package sim

import (
	"testing"

	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// TestHappyPathDecides is the end-to-end smoke test: a correct General
// among all-correct nodes leads every node to decide the General's value
// within the validity window [t0−d, t0+4d].
func TestHappyPathDecides(t *testing.T) {
	pp := protocol.DefaultParams(7)
	res, err := Run(Scenario{
		Params:      pp,
		Seed:        1,
		Initiations: []Initiation{{At: 0, G: 0, Value: "v"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	decs := res.Decisions(0)
	if len(decs) != pp.N {
		t.Fatalf("want %d decisions, got %d", pp.N, len(decs))
	}
	for _, d := range decs {
		if !d.Decided || d.Value != "v" {
			t.Fatalf("node %d: decided=%v value=%q", d.Node, d.Decided, d.Value)
		}
		if d.RT > simtime.Real(4*pp.D) {
			t.Errorf("node %d decided at rt=%d, beyond t0+4d=%d", d.Node, d.RT, 4*pp.D)
		}
		if d.RTauG < -simtime.Real(pp.D) {
			t.Errorf("node %d anchor rt=%d before t0−d", d.Node, d.RTauG)
		}
	}
}

// TestHappyPathWithCrashFaults checks validity with f silent nodes.
func TestHappyPathWithCrashFaults(t *testing.T) {
	pp := protocol.DefaultParams(7)
	res, err := Run(Scenario{
		Params: pp,
		Seed:   2,
		Faulty: map[protocol.NodeID]protocol.Node{5: nil, 6: nil},
		Initiations: []Initiation{
			{At: 0, G: 0, Value: "x"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	decs := res.Decisions(0)
	if len(decs) != pp.N-2 {
		t.Fatalf("want %d decisions, got %d", pp.N-2, len(decs))
	}
	for _, d := range decs {
		if !d.Decided || d.Value != "x" {
			t.Fatalf("node %d: decided=%v value=%q", d.Node, d.Decided, d.Value)
		}
	}
}

// TestSlotOnPlainNodesRefused: a footnote-9 slot other than 0 needs
// indexed nodes; plain Fig. 1 nodes refuse it as an initiation error.
func TestSlotOnPlainNodesRefused(t *testing.T) {
	pp := protocol.DefaultParams(4)
	res, err := Run(Scenario{
		Params:      pp,
		Seed:        16,
		Initiations: []Initiation{{At: simtime.Real(2 * pp.D), G: 0, Value: "v", Slot: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.InitErrs[0]; !ok {
		t.Error("slot initiation on plain nodes not refused")
	}
}
