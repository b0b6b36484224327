package protocol

import "ssbyz/internal/simtime"

// TimerTag names a pending timer so handlers can dispatch on it. Tags are
// opaque to the transports.
type TimerTag struct {
	// Name identifies the purpose (e.g. "round-deadline", "cleanup").
	Name string
	// G, M, K optionally scope the timer to a protocol instance.
	G NodeID
	M Value
	K int
}

// TimerID identifies a scheduled timer for cancellation.
type TimerID uint64

// Runtime is the environment a node runs in. Both the discrete-event
// simulator (internal/simnet) and the socket transport
// (internal/nettrans) implement it. All methods are called from the node's
// single event loop; implementations serialize delivery so Node code needs
// no locking.
type Runtime interface {
	// ID returns this node's identity.
	ID() NodeID
	// Now returns the node's local clock reading (drifting, possibly
	// wrapped). Protocol code must reason in this frame only.
	Now() simtime.Local
	// Send transmits m to a single node. The transport stamps From.
	Send(to NodeID, m Message)
	// Broadcast transmits m to every node including the sender itself
	// (the model has no broadcast medium; this is n point-to-point sends).
	Broadcast(m Message)
	// After schedules a timer that fires when the local clock has
	// advanced by dl, delivering tag to OnTimer.
	After(dl simtime.Duration, tag TimerTag) TimerID
	// Cancel stops a pending timer; cancelling a fired timer is a no-op.
	Cancel(id TimerID)
	// Params returns the shared protocol parameters.
	Params() Params
	// Trace records a protocol event for the property checkers. Correct
	// nodes call it at decide/abort/I-accept/accept points.
	Trace(ev TraceEvent)
}

// Node is a reactive protocol state machine. Implementations must be
// driven by a single goroutine (the transports guarantee this).
type Node interface {
	// Start attaches the runtime. It is called once, before any message
	// or timer delivery.
	Start(rt Runtime)
	// OnMessage delivers a received message. from is authenticated by the
	// transport.
	OnMessage(from NodeID, m Message)
	// OnTimer delivers a timer expiry.
	OnTimer(tag TimerTag)
}

// EventKind classifies trace events.
type EventKind int

const (
	// EvDecide: node returned ⟨value ≠ ⊥, τG⟩ from ss-Byz-Agree.
	EvDecide EventKind = iota + 1
	// EvAbort: node returned ⟨⊥, τG⟩.
	EvAbort
	// EvIAccept: node executed Line N4 (I-accept ⟨G,m,τG⟩).
	EvIAccept
	// EvAccept: node accepted (p,m,k) inside msgd-broadcast.
	EvAccept
	// EvInvoke: node invoked ss-Byz-Agree (received the Initiator msg).
	EvInvoke
	// EvInitiate: the General sent (Initiator,G,m).
	EvInitiate
	// EvPulse: node emitted a synchronized pulse (pulse extension).
	EvPulse
	// EvBaselineDecide: node decided in the TPS-87 baseline.
	EvBaselineDecide
	// EvExpire: an agreement instance terminated by state reset without
	// returning a value — the paper's second termination mode ("by time
	// (2f+1)·Φ + 3d on its clock all entries will be reset, which is a
	// termination of the protocol"). It occurs when a (possibly faulty)
	// General's initiation never produced an anchor at this node.
	EvExpire

	// numEventKinds is the sentinel bounding the kind space; the
	// recorder's per-kind index is sized from it, so a kind added above
	// is indexed automatically. Keep it last.
	numEventKinds
)

var eventKindNames = map[EventKind]string{
	EvDecide:         "decide",
	EvAbort:          "abort",
	EvIAccept:        "i-accept",
	EvAccept:         "accept",
	EvInvoke:         "invoke",
	EvInitiate:       "initiate",
	EvPulse:          "pulse",
	EvBaselineDecide: "baseline-decide",
	EvExpire:         "expire",
}

func (k EventKind) String() string {
	if s, ok := eventKindNames[k]; ok {
		return s
	}
	return "event(?)"
}

// TraceEvent is one observation recorded during a run. RT is stamped by the
// transport (the simulator knows virtual real time exactly; nettrans
// uses its clock — wall or virtual). Tau and TauG are in the node's local frame; RTauG is the
// real-time instant at which the node's local clock read TauG, computed by
// the transport so checkers can compare anchors across nodes (rt(τG) in the
// paper).
type TraceEvent struct {
	Kind  EventKind
	Node  NodeID
	RT    simtime.Real
	Tau   simtime.Local
	G     NodeID
	M     Value
	K     int
	TauG  simtime.Local
	RTauG simtime.Real
	// P is the broadcaster for EvAccept events (the p of (p, m, k)).
	P NodeID
}
