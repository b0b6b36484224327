// Package ssbyz is a from-scratch Go reproduction of "Self-stabilizing
// Byzantine Agreement" (Daliot & Dolev, PODC 2006): the ss-Byz-Agree
// protocol, its Initiator-Accept and msgd-broadcast building blocks, the
// Toueg–Perry–Srikanth (1987) time-driven baseline it improves on, a pulse
// synchronization layer built on top, and the simulation substrate that
// makes every proved bound of the paper measurable.
//
// The package runs the protocol through one service-oriented entry
// point, the Engine (New), on one of two runtimes:
//
//   - SimRuntime (the default): a deterministic discrete-event world with
//     per-node drifting clocks and adversarial message timing, where
//     virtual real time and each node's local reading are both
//     observable — this is how the paper's Timeliness/IA/TPS bounds are
//     verified exactly.
//
//   - SocketRuntime: a loopback cluster where every message crosses a
//     real UDP or TCP socket through the binary wire codec, for
//     demonstrating the bounds wall-clock and embedding the protocol in
//     real services.
//
// Agreement sessions (individual invocations, concurrent per footnote 9)
// and replicated logs (ordered client proposals, each committed through
// one agreement) are opened as handles on the Engine.
//
// Quickstart (one agreement, simulated):
//
//	eng, _ := ssbyz.New(ssbyz.WithN(7))
//	s, _ := eng.OpenSession(0)
//	s.ProposeAt("launch", 2*eng.Params().D)
//	report, _ := eng.Run(0)
//	for _, d := range report.Decisions(0) { fmt.Println(d.Node, d.Value) }
//
// Quickstart (replicated log under Poisson client load):
//
//	eng, _ := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSessions(4))
//	log, _ := eng.Log(0)
//	log.GenerateTraffic(ssbyz.Traffic{MeanGap: 4000, Count: 32})
//	report, _ := eng.Run(0)
//	for _, e := range report.Log(0).Committed() { fmt.Println(e.Index, e.Payload) }
//
// The deeper layers remain importable through this package's re-exported
// types; the experiment suite reproducing the paper's results lives behind
// RunExperiments and cmd/ssbyz-bench.
package ssbyz

import (
	"io"

	"ssbyz/internal/check"
	"ssbyz/internal/core"
	"ssbyz/internal/harness"
	"ssbyz/internal/indexed"
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

// Re-exported fundamental types. They alias the internal protocol
// vocabulary so user code can name them while the implementation layers
// stay internal.
type (
	// NodeID identifies one of the paper's n nodes (IDs are dense in
	// [0, N)); at most f of them are Byzantine at steady state.
	NodeID = protocol.NodeID
	// Value is an agreement value; the empty string is the paper's ⊥
	// (abort / no decision).
	Value = protocol.Value
	// Params carries n, f, d and derives every timing constant (Φ, Δ0,
	// Δrmv, Δv, Δagr, Δnode, Δreset, Δstb).
	Params = protocol.Params
	// Ticks is a duration in simulation ticks; d — the paper's message
	// delivery + processing bound — is typically 1000 ticks.
	Ticks = simtime.Duration
	// Violation is a failed check of one of the paper's proved
	// properties (Agreement, Validity, Timeliness-1..3, IA-*, TPS-*).
	Violation = check.Violation
)

// Bottom is the ⊥ value (abort / no decision).
const Bottom = protocol.Bottom

// Adversary scripts a Byzantine node. Construct values with the
// constructors in adversaries.go; a nil Adversary in WithFaultyNode marks
// a crash-faulty node.
type Adversary = protocol.Node

// Decision is one correct node's return for a General: the decided value
// (or ⊥ on abort), its real and local return times, and the anchor τG
// the decision is timed against.
type Decision = sim.Decision

// Pulse is one fired pulse at one node of the companion [6]
// pulse-synchronization layer; pulses of one cycle land within the
// agreement's 3d skew (Timeliness-1a).
type Pulse struct {
	Node  NodeID
	Cycle int
	// RT is the virtual real time of the pulse.
	RT simtime.Real
}

// Pulses returns every pulse fired by correct nodes of the companion [6]
// layer, grouped by cycle; each cycle's pulses inherit the agreement's
// 3d skew bound (Timeliness-1a), which experiment F4 measures.
func (r *Report) Pulses() map[int][]Pulse {
	out := make(map[int][]Pulse)
	for _, ev := range r.res.Rec.ByKind(protocol.EvPulse) {
		if !r.res.IsCorrect(ev.Node) {
			continue
		}
		out[ev.K] = append(out[ev.K], Pulse{Node: ev.Node, Cycle: ev.K, RT: ev.RT})
	}
	return out
}

// Report exposes a finished run's outcomes and the checks of the paper's
// proved properties (Agreement, Validity, Timeliness, IA-*, TPS-*).
type Report struct {
	res *sim.Result
}

// Decisions returns every correct node's decide-or-abort return for
// General g in node order (absent nodes never returned); the Agreement
// property requires the decided values to be identical. The slice is the
// caller's to keep (the memoized extract underneath is copied here, so
// mutating it cannot poison later queries).
func (r *Report) Decisions(g NodeID) []Decision {
	cached := r.res.Decisions(g)
	out := make([]Decision, len(cached))
	copy(out, cached)
	return out
}

// slotDecisions returns the correct nodes' decide-returns for General g
// in one concurrent slot (the paper's footnote-9 extension), with the
// slot namespace stripped from values.
func (r *Report) slotDecisions(g NodeID, slot int) []Decision {
	var out []Decision
	for _, d := range r.res.Decisions(g) {
		if !d.Decided {
			continue
		}
		sl, inner, ok := indexed.ParseSlotValue(d.Value)
		if !ok || sl != slot {
			continue
		}
		d.Value = inner
		out = append(out, d)
	}
	return out
}

// Unanimous reports whether every correct node returned exactly once for
// General g, deciding v — the all-decide case of the Agreement property.
// It is meant for single-agreement runs; for recurring agreements use
// Verified, which scopes to one initiation.
func (r *Report) Unanimous(g NodeID, v Value) bool {
	decs := r.res.Decisions(g)
	if len(decs) != len(r.res.Correct) {
		return false
	}
	for _, d := range decs {
		if !d.Decided || d.Value != v {
			return false
		}
	}
	return true
}

// DecisionsFor returns the decide-returns of correct nodes for General g
// carrying value v (recurring agreements — spaced by the paper's Δ0 and
// Δv minima — produce one entry per node per agreed initiation).
func (r *Report) DecisionsFor(g NodeID, v Value) []Decision {
	var out []Decision
	for _, d := range r.res.Decisions(g) {
		if d.Decided && d.Value == v {
			out = append(out, d)
		}
	}
	return out
}

// Verified reports whether the initiation of v by General g at virtual
// time t0 completed with full validity: every correct node decided v
// within the paper's window [t0−d, t0+4d].
func (r *Report) Verified(g NodeID, v Value, t0 Ticks) bool {
	pp := r.res.Scenario.Params
	nodes := make(map[NodeID]bool)
	for _, d := range r.DecisionsFor(g, v) {
		if d.RT >= simtime.Real(t0-pp.D) && d.RT <= simtime.Real(t0+4*pp.D) {
			nodes[d.Node] = true
		}
	}
	return len(nodes) == len(r.res.Correct)
}

// InitiationErrors returns the sending-validity refusals (IG1–IG3) hit by
// scheduled initiations, keyed by schedule index.
func (r *Report) InitiationErrors() map[int]error { return r.res.InitErrs }

// Check runs the full property battery (Agreement, Timeliness, IA/TPS
// bounds) for General g and returns any violations.
func (r *Report) Check(g NodeID) []Violation { return check.All(r.res, g) }

// CheckValidity additionally verifies the Validity window for a correct
// General that initiated v at virtual time t0.
func (r *Report) CheckValidity(g NodeID, t0 Ticks, v Value) []Violation {
	return check.Validity(r.res, g, simtime.Real(t0), v)
}

// Messages returns the total message count of the run — the quantity
// E10 and S1 track against the paper's O(n²)-per-primitive bound.
func (r *Report) Messages() int64 {
	if r.res.World == nil {
		// Live-runtime reports have no simulated World; the transport's
		// frame counters live in ScenarioReport.Live.Stats instead.
		return 0
	}
	total, _ := r.res.World.MessageCount()
	return total
}

// NewCorrectNode returns a fresh correct-node state machine — the full
// ss-Byz-Agree stack of Fig. 1 (sending-validity criteria IG1–IG3,
// Blocks K/L/Q/R) over Initiator-Accept and msgd-broadcast — for callers
// embedding the protocol behind their own transport. Most users should
// prefer an Engine (New), on the simulator or on sockets.
func NewCorrectNode() *core.Node { return core.NewNode() }

// ExperimentOptions tunes RunExperiments — the sweeps that re-measure the
// paper's proved bounds. Set Workers to fan independent simulation cells
// across goroutines (default runtime.GOMAXPROCS(0)); the report is
// byte-identical for every Workers value.
type ExperimentOptions = harness.Options

// ExperimentSuite is the machine-readable form of a suite run: options,
// per-experiment tables, and the total of the paper's property-bound
// violations, shaped for the BENCH_*.json perf-trajectory artifacts
// (every table deterministic; wall_ms per result is the one
// machine-varying field — see DESIGN.md §5).
type ExperimentSuite = harness.Suite

// ExperimentResult is one experiment's tables, notes, and count of
// violations of the paper's proved properties — the element type of
// ExperimentSuite.Results.
type ExperimentResult = harness.Result

// RunExperiments executes the full reproduction suite (experiments
// E1–E10, figures F1–F4, ablation A1, scaling workload S1, and the
// randomized adversarial campaign S2 of DESIGN.md §4) and writes each
// result to w. It returns the total number of violations of the paper's
// proved properties (0 for a faithful build).
func RunExperiments(w io.Writer, opt ExperimentOptions) (int, error) {
	suite, err := RunExperimentsSuite(w, opt)
	return suite.Violations, err
}

// RunExperimentsSuite is RunExperiments returning the machine-readable
// suite — the paper's re-measured bounds as data — alongside the
// human-readable report written to w.
func RunExperimentsSuite(w io.Writer, opt ExperimentOptions) (*ExperimentSuite, error) {
	results, err := harness.RunAll(w, opt)
	return harness.NewSuite(opt, results), err
}
