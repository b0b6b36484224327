package check

import (
	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
	"ssbyz/internal/simtime"
)

// This file adapts the property battery to live-transport traces. A live
// run (internal/nettrans) produces the same TraceEvent stream as the
// simulator — shaped into a sim.Result by nettrans.BuildResult — so
// every checker applies unchanged; what differs
// is bookkeeping: the initiations are scripted by the driver rather than
// a sim.Scenario, and decide latencies are the live experiment's headline
// metric.

// LiveInitiation is one scripted agreement of a live run: General G
// initiated V, and the EvInitiate trace event landed at tick T0 (the t0
// of the Validity window [t0−d, t0+4d]).
type LiveInitiation struct {
	G  protocol.NodeID
	V  protocol.Value
	T0 simtime.Real
}

// LiveResult wraps a live trace for verdicts.
type LiveResult struct {
	Result *sim.Result
}

// Battery runs the full property battery over the live trace: every
// General's Agreement/Timeliness/Termination/IA/TPS bounds plus the
// Validity window of each scripted initiation.
func (lr *LiveResult) Battery(inits []LiveInitiation) []Violation {
	var out []Violation
	pp := lr.Result.Scenario.Params
	for g := 0; g < pp.N; g++ {
		out = append(out, All(lr.Result, protocol.NodeID(g))...)
	}
	for _, in := range inits {
		out = append(out, Validity(lr.Result, in.G, in.T0, in.V)...)
	}
	return out
}

// DecideLatencies returns rt(decide) − t0 in ticks for every correct
// node that decided (G, V) — the live decide-latency sample set.
func (lr *LiveResult) DecideLatencies(g protocol.NodeID, v protocol.Value, t0 simtime.Real) []float64 {
	var out []float64
	for _, d := range lr.Result.Decisions(g) {
		if d.Decided && d.Value == v {
			out = append(out, float64(d.RT-t0))
		}
	}
	return out
}
