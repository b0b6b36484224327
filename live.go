package ssbyz

import (
	"io"

	"ssbyz/internal/harness"
)

// RunLiveExperiment executes experiment L1 — live loopback clusters over
// UDP/TCP sockets sweeping n ∈ {4, 7, 16}, decide-latency percentiles
// against the paper's d-based bounds, msgs/sec, and the property battery
// over every collected trace — and writes the result to w. L1's numbers
// are wall-clock measurements (they vary run to run), which is why it is
// not part of RunExperiments' deterministic suite; `ssbyz-bench -live`
// appends it explicitly.
func RunLiveExperiment(w io.Writer, opt ExperimentOptions) (*ExperimentResult, error) {
	r := harness.L1Live(opt)
	if _, err := r.WriteTo(w); err != nil {
		return r, err
	}
	return r, nil
}

// RunLiveServiceExperiment executes experiment L2 — the replicated-log
// service (Engine's Log facade) over real loopback UDP sockets at
// footnote-9 session concurrency 1 and 8, the wall-clock spot-check of
// S3's virtual-time throughput curve — and writes the result to w. Like L1
// its latency/throughput numbers vary with the host, so it is appended
// by `ssbyz-bench -live` rather than run in the deterministic suite;
// the acceptance is the verdict: every entry commits and the
// per-session property battery stays clean.
func RunLiveServiceExperiment(w io.Writer, opt ExperimentOptions) (*ExperimentResult, error) {
	r := harness.L2LiveService(opt)
	if _, err := r.WriteTo(w); err != nil {
		return r, err
	}
	return r, nil
}

// RunAdversarialLiveExperiment executes experiment L3 — the byte-level
// attack classes (corruption, cross-epoch replay, forged senders,
// duplication) injected into real UDP loopback clusters with the wire
// pipeline's per-class counters proving each defense fired, plus an
// in-situ transient-fault recovery cell where every node of a RUNNING
// cluster is corrupted in place and must re-stabilize within
// Δstb = 2Δreset of wall time — and writes the result to w. It is the
// real-socket mirror of the deterministic V3 campaign; like L1/L2 its
// wall-clock figures vary with the host, so `ssbyz-bench -live` appends
// it rather than the deterministic suite. The acceptance is the verdict:
// every attack injected and rejected, recovery within the paper's
// budget, zero battery violations.
func RunAdversarialLiveExperiment(w io.Writer, opt ExperimentOptions) (*ExperimentResult, error) {
	r := harness.L3AdversarialLive(opt)
	if _, err := r.WriteTo(w); err != nil {
		return r, err
	}
	return r, nil
}

// RunOpsLiveExperiment executes experiment L4 — the cluster operations
// campaign over real UDP loopback sockets: an n=4 fleet boots with one
// slot held back, the replicated-log pump commits entries at General 0
// throughout, the held slot scales up mid-run, a running node is rolled
// (stopped, epoch-bumped on every peer, rebooted at the next
// incarnation on the same address), and the fleet drains once the
// workload is committed and the replacement has re-stabilized — and
// writes the result to w. It is the real-socket mirror of the
// deterministic V4 campaign; its wall-clock times vary with the host,
// so `ssbyz-bench -live` appends it rather than the deterministic
// suite. The acceptance is the verdict: every entry commits under the
// roll, the rolled node re-stabilizes within Δstb = 2Δreset of real
// time (self-stabilization is what makes rolling replacement safe —
// DESIGN.md §12), and a frame replayed from the node's previous
// incarnation is rejected by every peer (epoch_drops > 0).
func RunOpsLiveExperiment(w io.Writer, opt ExperimentOptions) (*ExperimentResult, error) {
	r := harness.L4OpsLive(opt)
	if _, err := r.WriteTo(w); err != nil {
		return r, err
	}
	return r, nil
}
