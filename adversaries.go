package ssbyz

import (
	"ssbyz/internal/byzantine"
	"ssbyz/internal/protocol"
)

// Adversary constructors. Each returns a protocol.Node scripting one of
// the attack strategies the paper's proofs defend against; attach them
// with WithFaultyNode. Faulty nodes cannot forge sender identities
// (the transport authenticates senders, matching the paper's model).

// Crashed returns a forever-silent node — the crash fault, weakest point
// of the paper's Byzantine fault spectrum; the protocol must tolerate f
// of these inside its n > 3f resilience bound just like full traitors.
func Crashed() Adversary { return &byzantine.Silent{} }

// EquivocatingGeneral returns a faulty General that disseminates the given
// values round-robin across the nodes at local time at — the canonical
// attack on the Uniqueness property IA-4 (anchors for different values
// must stay > 4d apart or collapse to one agreement).
func EquivocatingGeneral(at Ticks, values ...Value) Adversary {
	return &byzantine.Equivocator{Values: values, At: at}
}

// PartialGeneral returns a faulty General that sends its initiation only
// to the invitee subset at local time at, leaving the rest of the network
// to discover the agreement — or not — through the primitive's relay
// machinery (Blocks L–N and the Δagr-Relay property IA-3).
func PartialGeneral(at Ticks, v Value, invitees ...NodeID) Adversary {
	return &byzantine.PartialGeneral{Invitees: invitees, Value: v, At: at}
}

// Colluder returns a faulty node that amplifies every wave it observes
// for General g, ignoring the exclusivity condition of Block K and the
// lastq(G)/lastq(G,m) rate limits that correct nodes obey.
func Colluder() Adversary { return &byzantine.Yeasayer{} }

// LateColluder returns a faulty node that contributes to General g's waves
// as late as the message windows allow, stretching every stage toward the
// Δagr = (2f+1)Φ bound (the Timeliness-3 worst case).
func LateColluder(g NodeID, holdLocal Ticks) Adversary {
	return &byzantine.LateSupporter{G: g, HoldLocal: holdLocal}
}

// Spammer returns a faulty node that floods the network with syntactically
// valid garbage — the memory-bound attack on the Δrmv decay rules and the
// Unforgeability properties (IA-2, TPS-2).
func Spammer() Adversary { return &byzantine.Spammer{} }

// Replayer returns a faulty node that captures all traffic and re-emits it
// after delay — the replay attack on the Δrmv decay and the IA-4
// separation machinery (stale waves must never re-anchor an agreement).
func Replayer(delay Ticks) Adversary { return &byzantine.Replayer{Delay: delay} }

// EchoForger returns a faulty node that fabricates broadcast-layer echo
// messages for a broadcast by forgedP that never happened (TPS-2 attack).
func EchoForger(g, forgedP NodeID, v Value, k int, at Ticks) Adversary {
	return &byzantine.EchoForger{G: g, ForgedP: forgedP, ForgedV: v, K: k, At: at}
}

// MirrorVoter returns a faulty node that reflects every wave message
// straight back at its sender — and only its sender — so each correct
// node privately counts the mirror toward a different wave: the most
// view-splitting participation a single Byzantine node can produce
// without forging identities, probing the distinct-sender thresholds of
// Initiator-Accept (IA-1, IA-4) from n directions at once.
func MirrorVoter() Adversary { return &byzantine.MirrorVoter{} }

// EdgeSupporter returns a faulty node that votes exactly when a wave's
// distinct-sender count sits one short of the Byzantine quorum n−2f, so
// thresholds are crossed only through the faulty vote at the last
// admissible instant — the sharpest probe of the paper's "at least one
// correct sender behind every quorum" counting arguments (IA-2, TPS-2).
func EdgeSupporter() Adversary { return &byzantine.EdgeSupporter{} }

// ComposeAdversaries runs several strategies concurrently on ONE faulty
// node — e.g. an equivocating General that also forges echoes. The
// paper's proofs quantify over every Byzantine strategy; composition
// multiplies what a single node of the ≤ f fault budget can exhibit.
func ComposeAdversaries(parts ...Adversary) Adversary {
	nodes := make([]protocol.Node, len(parts))
	for i, p := range parts {
		nodes[i] = p
	}
	return &byzantine.Composite{Parts: nodes}
}

// AdversaryStage is one phase of a StagedAdversary: Adv takes over at
// local time At (the first stage's At is ignored — it runs from the
// start; a nil Adv plays dead for the stage). Staged behavior is the
// self-stabilization-flavoured attack: a node may act correct through one
// agreement and turn Byzantine in the next.
type AdversaryStage struct {
	At  Ticks
	Adv Adversary
}

// StagedAdversary returns a faulty node that switches strategies at
// scripted local times — e.g. silent until Δagr, then equivocating. The
// paper's model fixes WHICH nodes are faulty but never how faults evolve
// in time; staging explores that axis.
func StagedAdversary(stages ...AdversaryStage) Adversary {
	ss := make([]byzantine.Stage, len(stages))
	for i, s := range stages {
		ss[i] = byzantine.Stage{At: s.At, Node: s.Adv}
	}
	return &byzantine.Staged{Stages: ss}
}

// AdaptiveAdversary returns a faulty node that behaves as base (nil =
// dormant) until it observes the first wave message for General g, then
// permanently arms the armed strategy — a state-reactive attack that
// strikes exactly when the watched agreement starts, the timing no fixed
// schedule reproduces. The paper's proofs admit such adversaries: every
// bound must hold regardless.
func AdaptiveAdversary(g NodeID, base, armed Adversary) Adversary {
	return &byzantine.Adaptive{
		Base:    base,
		Trigger: byzantine.OnGeneral(g),
		Then:    func() protocol.Node { return armed },
	}
}

var _ = []Adversary{
	(*byzantine.Silent)(nil),
	(*byzantine.Equivocator)(nil),
	(*byzantine.PartialGeneral)(nil),
	(*byzantine.Yeasayer)(nil),
	(*byzantine.LateSupporter)(nil),
	(*byzantine.Spammer)(nil),
	(*byzantine.Replayer)(nil),
	(*byzantine.EchoForger)(nil),
	(*byzantine.MirrorVoter)(nil),
	(*byzantine.EdgeSupporter)(nil),
	(*byzantine.Composite)(nil),
	(*byzantine.Staged)(nil),
	(*byzantine.Adaptive)(nil),
}

var _ protocol.Node = Adversary(nil)
