package harness

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"ssbyz/internal/core"
	"ssbyz/internal/golden"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

// Fan-out goldens at experiment scale. Both files under testdata were
// rendered by the per-recipient fan-out before its off-switch was
// removed, and these tests render the same inputs on today's simulator
// and require the same bytes. The fan-out differential itself — both
// paths side by side, with batches proven to fire — is simnet's
// TestBatchedFanoutMatchesPerRecipient.

// fanoutReport renders E1, E7 and the S1 table at n ∈ {4, 16, 31}.
func fanoutReport(t *testing.T) []byte {
	t.Helper()
	out := renderReport(t, Options{Quick: true}, E1ValidityLatency, E7FaultyGeneralAgreement)
	tb, violations, _ := ScalingTable(Options{Quick: true}, []int{4, 16, 31})
	return fmt.Appendf(out, "S1 n=4,16,31 violations=%d\n%s", violations, tb.String())
}

// TestBatchedVsLegacyReportsIdentical is a report golden, not a fan-out
// differential: it pins whole experiment reports — E1 (fault-free
// sweeps), E7 (equivocating General + colluder) and the S1 scaling table
// with its deterministic processed-event column — to the bytes the
// per-recipient fan-out rendered. Their delays span [d/2, d], wider than
// 4n at these sizes, so both then and now they run the per-recipient
// path.
func TestBatchedVsLegacyReportsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three experiments; skipped in -short")
	}
	golden.Check(t, "testdata/fanout_e1e7s1_quick.golden", fanoutReport(t))
}

// fanoutWorld runs one n=16 agreement with delays in [d−60, d] — a span
// of 61 ≤ 4n, so the simulator takes the batched fan-out (simnet's
// differential fails if this n and span stop selecting it) — and digests
// everything the run makes observable: the per-kind message counts, the
// processed-event counter and the full trace, in order.
func fanoutWorld(t *testing.T, seed int64) string {
	t.Helper()
	pp := protocol.DefaultParams(16)
	res, err := sim.Run(sim.Scenario{
		Params:      pp,
		Seed:        seed,
		DelayMin:    pp.D - 60,
		DelayMax:    pp.D,
		NewNode:     func() protocol.Node { return core.NewNode() },
		Initiations: []sim.Initiation{{At: simtime.Real(2 * pp.D), G: 0, Value: "v"}},
	})
	if err != nil {
		t.Fatalf("seed %d: run: %v", seed, err)
	}
	total, byKind := res.World.MessageCount()
	h := sha256.New()
	decides := 0
	for _, ev := range res.Rec.Events() {
		fmt.Fprintf(h, "%+v\n", ev)
		if ev.Kind == protocol.EvDecide {
			decides++
		}
	}
	return fmt.Sprintf("seed=%d messages=%d kinds=%v processed=%d events=%d decides=%d trace-sha256=%x\n",
		seed, total, byKind, res.World.Scheduler().Processed(), len(res.Rec.Events()), decides, h.Sum(nil))
}

// TestBatchedVsLegacyWorldIdentical compares single batched worlds at
// the trace level — every recorded event in order, the per-kind message
// counts and the processed-event counter — against the digests the
// per-recipient fan-out produced, the strongest form of the
// delivery-order guarantee.
func TestBatchedVsLegacyWorldIdentical(t *testing.T) {
	var got []byte
	for seed := int64(0); seed < 3; seed++ {
		got = append(got, fanoutWorld(t, seed)...)
	}
	golden.Check(t, "testdata/fanout_world_n16.golden", got)
}
