package main

import (
	"time"

	"ssbyz/internal/protocol"
	"ssbyz/internal/sim"
)

// Layer timing from outside the program. The traced run wraps each node
// (the NewNode seams of sim.Scenario and nettrans.ClusterConfig) and the
// protocol.Runtime it is started with, and times the calls the benchmark
// itself makes into the service pump, the backend, the scheduler and the
// checkers. Every timed call is a frame on a per-goroutine stack, so a
// layer's self time is its own duration minus the part its child frames
// cover.

type layer int

const (
	lSimtime  layer = iota // World.RunUntil (self time = scheduler dispatch)
	lNode                  // Node.OnMessage / OnTimer
	lInitiate              // the node's InitiateAgreement
	lSend                  // Runtime.Broadcast / Send
	lTrace                 // Runtime.Trace (the protocol.Recorder)
	lStep                  // service.Pump.Step
	lBackend               // service.Backend.Initiate
	lCheck                 // check.All / service.Battery
	nLayers
)

type layerAcc struct {
	total, self time.Duration
	calls       int64
}

type frame struct {
	layer layer
	start time.Duration
	child time.Duration
}

// lane accumulates the frames of one goroutine: the simulator is one
// lane, a live cluster has one lane per node event loop plus one for the
// pump driver. A nil *lane records nothing, which is how the untraced run
// shares the traced run's composition.
type lane struct {
	stack      []frame
	acc        [nLayers]layerAcc
	broadcasts int64
}

var clockBase = time.Now()

func mono() time.Duration { return time.Since(clockBase) }

func (l *lane) enter(k layer) {
	if l == nil {
		return
	}
	l.stack = append(l.stack, frame{layer: k, start: mono()})
}

func (l *lane) exit() {
	if l == nil {
		return
	}
	top := len(l.stack) - 1
	f := l.stack[top]
	l.stack = l.stack[:top]
	d := mono() - f.start
	a := &l.acc[f.layer]
	a.total += d
	a.self += d - f.child
	a.calls++
	if top > 0 {
		l.stack[top-1].child += d
	}
}

// merge adds other's totals into l (after other's goroutine has ended).
func (l *lane) merge(other *lane) {
	for k := range l.acc {
		l.acc[k].total += other.acc[k].total
		l.acc[k].self += other.acc[k].self
		l.acc[k].calls += other.acc[k].calls
	}
	l.broadcasts += other.broadcasts
}

// timedRT wraps the Runtime a node is started with. onDecide, when set,
// sees every decide the node traces, stamped with the wall instant of
// the return.
type timedRT struct {
	protocol.Runtime
	ln       *lane
	onDecide decideFunc
}

// decideFunc receives a decide traced by node, stamped with the wall
// instant it was traced.
type decideFunc func(node protocol.NodeID, ev protocol.TraceEvent, at time.Time)

func (r *timedRT) Broadcast(m protocol.Message) {
	if r.ln != nil {
		r.ln.broadcasts++
	}
	r.ln.enter(lSend)
	r.Runtime.Broadcast(m)
	r.ln.exit()
}

func (r *timedRT) Send(to protocol.NodeID, m protocol.Message) {
	r.ln.enter(lSend)
	r.Runtime.Send(to, m)
	r.ln.exit()
}

func (r *timedRT) Trace(ev protocol.TraceEvent) {
	if r.onDecide != nil && ev.Kind == protocol.EvDecide {
		r.onDecide(r.ID(), ev, time.Now())
	}
	r.ln.enter(lTrace)
	r.Runtime.Trace(ev)
	r.ln.exit()
}

// timedNode wraps a protocol node and times its handlers.
type timedNode struct {
	inner    protocol.Node
	ln       *lane
	onDecide decideFunc
	rt       timedRT
}

func (n *timedNode) Start(rt protocol.Runtime) {
	n.rt = timedRT{Runtime: rt, ln: n.ln, onDecide: n.onDecide}
	n.inner.Start(&n.rt)
}

func (n *timedNode) OnMessage(from protocol.NodeID, m protocol.Message) {
	n.ln.enter(lNode)
	n.inner.OnMessage(from, m)
	n.ln.exit()
}

func (n *timedNode) OnTimer(tag protocol.TimerTag) {
	n.ln.enter(lNode)
	n.inner.OnTimer(tag)
	n.ln.exit()
}

// timedCore is a wrapped single-session node (sim.Initiator).
type timedCore struct{ *timedNode }

func (n timedCore) InitiateAgreement(v protocol.Value) error {
	n.ln.enter(lInitiate)
	err := n.inner.(sim.Initiator).InitiateAgreement(v)
	n.ln.exit()
	return err
}

// timedSlots is a wrapped multi-session node (sim.SlotInitiator).
type timedSlots struct{ *timedNode }

func (n timedSlots) InitiateAgreement(slot int, v protocol.Value) error {
	n.ln.enter(lInitiate)
	err := n.inner.(sim.SlotInitiator).InitiateAgreement(slot, v)
	n.ln.exit()
	return err
}

// wrapNode returns inner behind the timing wrapper, keeping whichever
// initiator interface inner has.
func wrapNode(inner protocol.Node, ln *lane, onDecide decideFunc) protocol.Node {
	tn := &timedNode{inner: inner, ln: ln, onDecide: onDecide}
	switch inner.(type) {
	case sim.SlotInitiator:
		return timedSlots{tn}
	case sim.Initiator:
		return timedCore{tn}
	}
	return tn
}
