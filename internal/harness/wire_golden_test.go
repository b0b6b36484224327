package harness

import (
	"bytes"
	"fmt"
	"testing"

	"ssbyz/internal/golden"
)

// The wire golden at campaign scale. V1 (the deterministic live campaign)
// and V3 (the deterministic adversarial campaign) run the full nettrans
// pipeline over the virtual wire, so their rendered reports — latency
// tables, per-class injected/rejected accounting, violations, notes — are
// a fingerprint of every frame the coalescer packed. The committed golden
// was rendered with coalescing on and matched one datagram per frame byte
// for byte at Workers 1 and 8, so any change to what a node observes on
// the wire shows up here as a diff.

// renderReport renders experiment results the way RunAll does, minus the
// non-deterministic JSON-only fields (WallMS etc. are not written by
// WriteTo), so two renders can be compared byte for byte.
func renderReport(t *testing.T, opt Options, exps ...func(Options) *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, run := range exps {
		if _, err := run(opt).WriteTo(&buf); err != nil {
			t.Fatalf("render: %v", err)
		}
	}
	return buf.Bytes()
}

// TestWireReportsGolden renders V1+V3 at Workers 1 and 8 and requires the
// committed bytes from both. Workers is swept because the coalescer runs
// inside each cell's event loops: a cell-parallelism leak into coalescing
// decisions would show up as a diff between the two renderings.
func TestWireReportsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two campaigns twice; skipped in -short")
	}
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := renderReport(t, Options{Quick: true, Workers: workers}, V1VirtualLive, V3AdversarialLive)
			golden.Check(t, "testdata/wire_v1v3_quick.golden", got)
		})
	}
}
