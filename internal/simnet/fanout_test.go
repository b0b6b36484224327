package simnet

import (
	"testing"

	"ssbyz/internal/core"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simtime"
)

// The fan-out differential: the batched per-tick broadcast path must
// deliver exactly what the per-recipient path delivers. Each world runs
// real core nodes twice over the same seed, once with useBatch forced
// off, and the two runs must agree on the full trace, the per-kind
// message counts and the processed-event counter. Batching only pays
// when the delay span is at most 4n, so the inputs use narrow delay
// windows; the batch spy proves every batched run really dispatched
// multi-recipient batches, so the test cannot pass vacuously.

// batchSpy counts scheduler events that delivered more than one message.
// A batch dispatches all its recipients inside one event, so consecutive
// deliveries that read the same Processed() value shared an event; the
// per-recipient path never does that.
type batchSpy struct {
	sch     *simtime.Scheduler
	last    uint64
	inBatch bool
	batches int64
}

func (s *batchSpy) delivered() {
	cur := s.sch.Processed()
	if cur == s.last {
		if !s.inBatch {
			s.batches++
			s.inBatch = true
		}
		return
	}
	s.last, s.inBatch = cur, false
}

// spiedNode forwards to a core node and reports each delivery to the spy.
type spiedNode struct {
	*core.Node
	spy *batchSpy
}

func (n spiedNode) OnMessage(from protocol.NodeID, m protocol.Message) {
	n.spy.delivered()
	n.Node.OnMessage(from, m)
}

// fanoutWorld is one differential input.
type fanoutWorld struct {
	name  string
	n     int
	span  simtime.Duration // delays are drawn from [d−span, d]
	conds []Condition
	seeds int64
}

// fanoutRun is everything a run makes observable.
type fanoutRun struct {
	events    []protocol.TraceEvent
	total     int64
	byKind    map[protocol.MsgKind]int64
	processed uint64
	batches   int64
}

// runFanout runs one agreement from General 0 on the given world.
func runFanout(t *testing.T, fw fanoutWorld, seed int64, batched bool) fanoutRun {
	t.Helper()
	pp := protocol.DefaultParams(fw.n)
	w := newWorld(t, Config{
		Params: pp, Seed: seed,
		DelayMin: pp.D - fw.span, DelayMax: pp.D,
		Conditions: fw.conds,
	})
	if !w.useBatch {
		t.Fatalf("%s: delay span does not select the batched path", fw.name)
	}
	w.useBatch = batched
	spy := &batchSpy{sch: w.Scheduler()}
	nodes := make([]*core.Node, fw.n)
	for i := range nodes {
		nodes[i] = core.NewNode()
		w.SetNode(protocol.NodeID(i), spiedNode{Node: nodes[i], spy: spy})
	}
	w.Start()
	w.Scheduler().At(simtime.Real(2*pp.D), func() {
		if err := nodes[0].InitiateAgreement("v"); err != nil {
			t.Errorf("%s seed %d: initiate: %v", fw.name, seed, err)
		}
	})
	w.RunUntil(simtime.Real(3 * pp.DeltaAgr()))
	total, byKind := w.MessageCount()
	return fanoutRun{w.Recorder().Events(), total, byKind, w.Scheduler().Processed(), spy.batches}
}

func decided(evs []protocol.TraceEvent) int {
	n := 0
	for _, ev := range evs {
		if ev.Kind == protocol.EvDecide {
			n++
		}
	}
	return n
}

// TestBatchedFanoutMatchesPerRecipient is the fan-out differential.
func TestBatchedFanoutMatchesPerRecipient(t *testing.T) {
	worlds := []fanoutWorld{
		// Span 61 ≤ 4·16, with a jitter window stretching delays inside
		// the span and node 5 churned off for part of the agreement, so
		// the condition path runs on both fan-outs too.
		{"n16-span61", 16, 60, []Condition{
			{Kind: CondJitter, From: 2000, Until: 4000, Jitter: 30},
			{Kind: CondChurn, From: 2500, Until: 3500, Nodes: []protocol.NodeID{5}},
		}, 3},
		{"n64-span101", 64, 100, nil, 1},
	}
	for _, fw := range worlds {
		for seed := int64(0); seed < fw.seeds; seed++ {
			b := runFanout(t, fw, seed, true)
			p := runFanout(t, fw, seed, false)
			if decided(p.events) == 0 {
				t.Fatalf("%s seed %d: no node decided", fw.name, seed)
			}
			if b.batches == 0 {
				t.Fatalf("%s seed %d: batched run dispatched no multi-recipient batch", fw.name, seed)
			}
			if p.batches != 0 {
				t.Fatalf("%s seed %d: per-recipient run dispatched %d batches", fw.name, seed, p.batches)
			}
			if b.total != p.total {
				t.Fatalf("%s seed %d: MessageCount %d (batched) != %d (per-recipient)", fw.name, seed, b.total, p.total)
			}
			for k, v := range p.byKind {
				if b.byKind[k] != v {
					t.Fatalf("%s seed %d: kind %v count %d (batched) != %d (per-recipient)", fw.name, seed, k, b.byKind[k], v)
				}
			}
			if len(b.byKind) != len(p.byKind) {
				t.Fatalf("%s seed %d: kinds %v (batched) != %v (per-recipient)", fw.name, seed, b.byKind, p.byKind)
			}
			if b.processed != p.processed {
				t.Fatalf("%s seed %d: Processed %d (batched) != %d (per-recipient)", fw.name, seed, b.processed, p.processed)
			}
			if len(b.events) != len(p.events) {
				t.Fatalf("%s seed %d: %d trace events (batched) != %d (per-recipient)", fw.name, seed, len(b.events), len(p.events))
			}
			for i := range b.events {
				if b.events[i] != p.events[i] {
					t.Fatalf("%s seed %d: trace event %d differs:\nbatched:       %+v\nper-recipient: %+v",
						fw.name, seed, i, b.events[i], p.events[i])
				}
			}
		}
	}
}
