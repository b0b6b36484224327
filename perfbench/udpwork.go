package main

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"ssbyz/internal/indexed"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/service"
	"ssbyz/internal/simtime"
)

// buildCluster builds cfg setupReps times, recording each build in
// p.setups, and returns the last cluster. reset runs before each build so
// per-cluster state the NewNode factory collects starts empty.
func buildCluster(p *pass, cfg nettrans.ClusterConfig, reset func()) (*nettrans.Cluster, error) {
	for r := 0; ; r++ {
		reset()
		start := time.Now()
		c, err := nettrans.NewCluster(cfg)
		if err != nil {
			return nil, fmt.Errorf("build cluster: %w", err)
		}
		p.setups = append(p.setups, time.Since(start))
		if r == setupReps-1 {
			return c, nil
		}
		c.Stop()
	}
}

// Wire pump parameters of udp-pump-n16: node 0 of a 16-node loopback UDP
// cluster floods pumpRound broadcasts per round, issued inside its event
// loop in chunks of pumpChunk, as nettrans.Cluster.Pump does. As in the
// transport's own pump tests, d is 10000 ticks (1s), so a scheduling
// hiccup under the flood reads as kernel loss, which the protocol
// tolerates, and not as a late drop.
const (
	pumpN      = 16
	pumpD      = 10000
	pumpRound  = 32768
	pumpChunk  = 512
	pumpSettle = 150 * time.Millisecond
	pumpPoll   = 5 * time.Millisecond
	pumpWarmup = 2 * time.Second
)

// floodNode is a nettrans.NullNode that keeps the Runtime it was started
// with, so the flood goes through the same seam the protocol uses (and a
// traced pass can time Broadcast). The flood runs only on node 0's event
// loop; scratch belongs to that loop.
type floodNode struct {
	nettrans.NullNode
	ln      *lane
	rt      protocol.Runtime
	scratch []byte
}

func (n *floodNode) Start(rt protocol.Runtime) {
	n.rt = rt
	if n.ln != nil {
		n.rt = &timedRT{Runtime: rt, ln: n.ln}
	}
}

// floodRound broadcasts count distinct messages (values first..first+count)
// from node 0 and waits until deliveries plateau. elapsed runs from the
// first send to the last observed delivery, excluding the settle window.
func floodRound(c *nettrans.Cluster, first int64, count int) (sent, received int64, elapsed time.Duration) {
	base := c.Stats()
	start := time.Now()
	for lo := 0; lo < count; lo += pumpChunk {
		lo, hi := lo, min(lo+pumpChunk, count)
		c.Do(0, func(n protocol.Node) {
			fn := n.(*floodNode)
			for i := lo; i < hi; i++ {
				fn.scratch = strconv.AppendInt(fn.scratch[:0], first+int64(i), 10)
				fn.rt.Broadcast(protocol.Message{Kind: protocol.Initiator, G: 0, M: protocol.Value(fn.scratch)})
			}
		})
	}
	want := int64(count) * pumpN
	last, lastChange := int64(-1), start
	for {
		cur := c.Stats().Received - base.Received
		now := time.Now()
		if cur != last {
			last, lastChange = cur, now
		}
		if cur == want || (cur > 0 && now.Sub(lastChange) > pumpSettle) || now.Sub(start) > time.Minute {
			break
		}
		time.Sleep(pumpPoll)
	}
	s := c.Stats()
	return s.Sent - base.Sent, s.Received - base.Received, lastChange.Sub(start)
}

// runUDPPump floods a 16-node loopback UDP cluster, protocol stubbed out,
// round after round until the window closes. One operation is 1000
// delivered messages; a round's latency is its first send to its last
// delivery.
func runUDPPump(rc runConfig) (*pass, error) {
	p := newPass("kmsg", rc)
	var ln *lane
	if rc.traced {
		ln = &lane{}
	}
	pp := protocol.DefaultParams(pumpN)
	pp.D = pumpD
	cfg := nettrans.ClusterConfig{
		Params:    pp,
		Transport: nettrans.TransportUDP,
		NewNode:   func() protocol.Node { return &floodNode{ln: ln} },
	}
	c, err := buildCluster(p, cfg, func() {})
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	// Warm the pipeline first, for longer than the dedup window: dedup
	// tables, coalescer buffers, socket pools and the heap grow to their
	// steady-state size. Warm-up values are negative, so they never repeat
	// a measured one.
	for k, start := int64(1), time.Now(); time.Since(start) < pumpWarmup; k++ {
		floodRound(c, -k*pumpRound, pumpRound)
	}
	warm := c.Stats()
	m := startMeter()
	var sent, received int64
	for i := 0; !p.done(m, i); i++ {
		s, r, el := floodRound(c, int64(i+1)*pumpRound, pumpRound)
		sent += s
		received += r
		p.busy += el
		p.lat = append(p.lat, ms(el))
		p.span(map[string]any{"round": i, "sent": s, "received": r, "elapsed_ms": ms(el)})
	}
	p.stop(m)
	st, bs := c.Stats(), c.BatchStats()
	c.Stop() // the event loops have ended; the lane is safe to read
	p.ln = ln

	p.attempted = int(sent)
	p.ops = float64(received) / 1000
	if st.Received-warm.Received > st.Sent-warm.Sent {
		p.violations = append(p.violations, fmt.Sprintf("received %d > sent %d", st.Received-warm.Received, st.Sent-warm.Sent))
	}
	bad := st.DecodeDrops + st.AuthDrops + st.EpochDrops + st.LateDrops + st.DupDrops
	p.failed = int(bad)
	if bad > 0 {
		p.violations = append(p.violations, fmt.Sprintf("drops on a clean wire: decode=%d auth=%d epoch=%d late=%d dup=%d",
			st.DecodeDrops, st.AuthDrops, st.EpochDrops, st.LateDrops, st.DupDrops))
	}
	p.count("nettrans.sent", sent)
	p.count("nettrans.received", received)
	p.wireStats(st, bs, sent, received)
	return p, nil
}

// wireStats records the nettrans counters of a live pass.
func (p *pass) wireStats(st nettrans.Stats, bs nettrans.BatchStats, sent, received int64) {
	if sent > 0 {
		p.extra["nettrans.loss_share"] = 1 - float64(received)/float64(sent)
	}
	if bs.BatchesSent > 0 {
		p.extra["nettrans.frames_per_container"] = float64(bs.BatchedFrames) / float64(bs.BatchesSent)
	}
	p.extra["nettrans.late_drops"] = float64(st.LateDrops)
	p.extra["nettrans.dup_drops"] = float64(st.DupDrops)
	p.extra["nettrans.decode_drops"] = float64(st.DecodeDrops)
}

// Replicated-log parameters of udp-log-n7: n=7 (f=2), 8 sessions, d = 100
// ticks of 100µs = 10ms, and open-loop Poisson arrivals at General 0 at
// liveRate per second, about 40% of the 8/Δ0 ≈ 61/s IG1 capacity.
const (
	liveN        = 7
	liveSessions = 8
	liveD        = 100
	liveTick     = 100 * time.Microsecond
	liveRate     = 25.0
)

// liveBackend initiates through the cluster like service.RunLive's
// backend (a DoWait round trip into the General's event loop) and counts
// attempts and sending-validity refusals.
type liveBackend struct {
	c        *nettrans.Cluster
	ln       *lane
	attempts int64
	refusals int64
}

func (b *liveBackend) Initiate(g protocol.NodeID, slot int, v protocol.Value) (protocol.Value, error) {
	b.attempts++
	b.ln.enter(lBackend)
	_, wire, err := b.c.InitiateIn(g, slot, v, 2*time.Second)
	b.ln.exit()
	if isRefusal(err) {
		b.refusals++
	}
	return wire, err
}

// liveArrivals draws count Poisson arrivals with service.PoissonArrivals
// and rescales them so the count+1-th lands exactly span ticks after
// start: a Poisson process conditioned on its count, so every run offers
// the same load over the same window.
func liveArrivals(seed int64, start simtime.Real, span simtime.Duration, count int) []simtime.Real {
	raw := service.PoissonArrivals(seed, 0, simtime.Duration(float64(time.Second)/liveRate/float64(liveTick)), count+1)
	scale := float64(span) / float64(raw[count])
	out := make([]simtime.Real, count)
	for i := range out {
		out[i] = start + simtime.Real(float64(raw[i])*scale)
	}
	return out
}

// clusterEpoch finds the wall instant of tick 0 of c by spinning across
// a tick boundary.
func clusterEpoch(c *nettrans.Cluster) time.Time {
	k0 := c.NowTicks()
	prev := time.Now()
	for {
		k := c.NowTicks()
		now := time.Now()
		if k != k0 {
			boundary := prev.Add(now.Sub(prev) / 2)
			return boundary.Add(-time.Duration(k) * c.Tick())
		}
		prev = now
	}
}

// runUDPLog runs a replicated log over loopback UDP in wall time: the
// composition of service.RunLive (nettrans.NewCluster, service.NewPump,
// Pump.Step on a quarter-d poll) with the node seam RunLive lacks. One
// operation is one committed entry; its latency runs from the instant the
// arrival was due to the General's decide.
func runUDPLog(rc runConfig) (*pass, error) {
	pp := protocol.DefaultParams(liveN)
	pp.D = liveD
	p := newPass("commit", rc)
	var lanes []*lane
	var pumpLane *lane
	if rc.traced {
		pumpLane = &lane{}
	}
	var mu sync.Mutex
	decided := map[protocol.Value]time.Time{}
	onDecide := func(node protocol.NodeID, ev protocol.TraceEvent, at time.Time) {
		if node != ev.G {
			return
		}
		mu.Lock()
		if _, ok := decided[ev.M]; !ok {
			decided[ev.M] = at
		}
		mu.Unlock()
	}
	cfg := nettrans.ClusterConfig{
		Params:    pp,
		Tick:      liveTick,
		Transport: nettrans.TransportUDP,
		NewNode: func() protocol.Node {
			var ln *lane
			if rc.traced {
				ln = &lane{}
				lanes = append(lanes, ln)
			}
			return wrapNode(indexed.NewNode(liveSessions), ln, onDecide)
		},
	}
	c, err := buildCluster(p, cfg, func() { lanes = nil })
	if err != nil {
		return nil, err
	}
	defer c.Stop()
	epoch := clusterEpoch(c)

	span := simtime.Duration(rc.seconds / liveTick)
	count := int(liveRate * rc.seconds.Seconds())
	arrivals := liveArrivals(rc.seed, c.NowTicks()+2*simtime.Real(pp.D), span, count)
	be := &liveBackend{c: c, ln: pumpLane}
	pump := service.NewPump(service.PumpConfig{
		Params:   pp,
		Backend:  be,
		Recorder: c.Recorder(),
		Sessions: liveSessions,
		Loads:    []service.Workload{{G: 0, Arrivals: arrivals}},
	})
	quarter := time.Duration(pp.D) / 4 * liveTick
	deadline := time.Now().Add(rc.seconds + time.Minute)
	m := startMeter()
	for {
		pumpLane.enter(lStep)
		pump.Step(c.NowTicks())
		pumpLane.exit()
		if pump.Idle() {
			break
		}
		if time.Now().After(deadline) {
			p.violations = append(p.violations, "log did not drain within a minute of its last arrival")
			break
		}
		time.Sleep(quarter)
	}
	// Let the last decide returns settle at every correct node before the
	// trace is read (the General's own return leads its peers by ≤ 2d).
	time.Sleep(2 * time.Duration(pp.D) * liveTick)
	p.stop(m)
	horizon := simtime.Duration(c.NowTicks())
	st, bs := c.Stats(), c.BatchStats()
	late := map[protocol.NodeID]int64{}
	for _, id := range c.Correct() {
		if n := c.NodeStats(id).LateDrops; n > 0 {
			late[id] = n
		}
	}
	c.Stop() // the event loops have ended; lanes and decided are safe to read
	for _, ln := range lanes {
		pumpLane.merge(ln)
	}
	p.ln = pumpLane

	// The model premise (d-bound) is judged per node: a node that dropped
	// a frame as late saw delivery outside the model and is model-faulty.
	// With at most f of them, none the General, the battery runs with
	// them counted as faulty and must pass; otherwise the run is outside
	// the model, which never counts as a pass.
	var inModel []protocol.NodeID
	for _, id := range c.Correct() {
		if late[id] == 0 {
			inModel = append(inModel, id)
		}
	}
	_, generalLate := late[0]
	outside := len(late) > pp.F || generalLate
	res := nettrans.BuildResult(pp, c.Recorder().Events(), inModel, horizon)
	logs := pump.Results()
	pumpLane.enter(lCheck)
	vs := service.Battery(res, logs)
	pumpLane.exit()

	ls := logs[0].Stats()
	p.attempted = ls.Proposed
	p.failed = ls.Proposed - ls.Committed
	bad := violationStrings(vs)
	if ls.Committed != ls.Proposed || ls.Dropped > 0 || ls.Failed > 0 {
		bad = append(bad, fmt.Sprintf("log incomplete: committed=%d dropped=%d failed=%d of %d",
			ls.Committed, ls.Dropped, ls.Failed, ls.Proposed))
	}
	switch {
	case outside:
		p.violations = append(p.violations, fmt.Sprintf(
			"OUTSIDE MODEL: the host broke the d-bound (d = %v) at nodes %v (late drops per node), more than f=%d or the General; the run is not judged and does not pass",
			time.Duration(pp.D)*liveTick, late, pp.F))
		for _, b := range bad {
			p.notes = append(p.notes, "evidence outside the model: "+b)
		}
	case len(late) > 0:
		p.notes = append(p.notes, fmt.Sprintf(
			"model-faulty nodes %v (late drops per node) broke the d-bound; the battery counts them as faulty", late))
		p.violations = append(p.violations, bad...)
	default:
		p.violations = append(p.violations, bad...)
	}
	tickMS := ms(liveTick)
	var first, last time.Time
	for _, e := range logs[0].Committed {
		due := epoch.Add(time.Duration(e.ArrivedAt) * liveTick)
		at, ok := decided[e.Wire]
		if !ok {
			p.violations = append(p.violations, fmt.Sprintf("entry %d committed without a stamped decide", e.Index))
			continue
		}
		if first.IsZero() || due.Before(first) {
			first = due
		}
		if at.After(last) {
			last = at
		}
		p.ops++
		p.lat = append(p.lat, ms(at.Sub(due)))
		p.queueWait = append(p.queueWait, float64(e.InitiatedAt-e.ArrivedAt)*tickMS)
		p.agree = append(p.agree, float64(e.CommittedAt-e.InitiatedAt)*tickMS)
		p.span(map[string]any{"entry": e.Index, "slot": e.Slot, "arrived_tick": e.ArrivedAt,
			"initiated_tick": e.InitiatedAt, "committed_tick": e.CommittedAt, "latency_ms": ms(at.Sub(due))})
	}
	p.busy = last.Sub(first)
	p.count("service.initiate_attempts", be.attempts)
	p.count("service.ig_refusals", be.refusals)
	p.count("nettrans.sent", st.Sent)
	p.count("nettrans.received", st.Received)
	p.wireStats(st, bs, st.Sent, st.Received)
	return p, nil
}
