package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ssbyz/internal/check"
	"ssbyz/internal/core"
	"ssbyz/internal/indexed"
	"ssbyz/internal/protocol"
	"ssbyz/internal/service"
	"ssbyz/internal/sim"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// unitSeed derives the simulator seed of unit i of a run from the
// benchmark seed, so every unit of every run is reproducible on its own.
func unitSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }

// agreeN is the committee of sim-agree-n64 (f = 21).
const agreeN = 64

// runSimAgree runs fault-free n=64 agreements back to back on the
// discrete-event simulator until the window closes. One operation is one
// agreement: set-up, simulation and the check.All battery.
func runSimAgree(rc runConfig) (*pass, error) {
	pp := protocol.DefaultParams(agreeN)
	t0 := simtime.Real(2 * pp.D)
	p := newPass("agreement", rc)
	var ln *lane
	if rc.traced {
		ln = &lane{}
	}
	m := startMeter()
	for i := 0; !p.done(m, i); i++ {
		seed := unitSeed(rc.seed, i)
		start := mono()
		var setupEnd time.Duration
		sc := sim.Scenario{
			Params:      pp,
			Seed:        seed,
			DelayMin:    pp.D / 2,
			DelayMax:    pp.D,
			Initiations: []sim.Initiation{{At: t0, G: 0, Value: "v"}},
			RunFor:      simtime.Duration(t0) + 3*pp.DeltaAgr(),
			Drive: func(*simnet.World) {
				setupEnd = mono()
				ln.enter(lSimtime)
			},
		}
		if rc.traced {
			sc.NewNode = func() protocol.Node { return wrapNode(core.NewNode(), ln, nil) }
		}
		res, err := sim.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("sim-agree-n64 seed %d: %w", seed, err)
		}
		ln.exit()
		ln.enter(lCheck)
		vs := check.All(res, 0)
		ln.exit()
		end := mono()

		events := int64(res.World.Scheduler().Processed())
		msgs, _ := res.World.MessageCount()
		p.pinUnit(i, ln, map[string]int64{"simtime.events": events, "simnet.messages": msgs})
		p.attempted++
		bad := violationStrings(vs)
		bad = append(bad, unanimity(res, 0, "v")...)
		if len(bad) > 0 {
			p.fail(fmt.Sprintf("agreement seed %d", seed), bad)
			p.failed++
			continue
		}
		p.ops++
		p.setups = append(p.setups, setupEnd-start)
		p.lat = append(p.lat, ms(end-start))
		p.count("simtime.events", events)
		p.count("simnet.messages", msgs)
		p.span(map[string]any{"unit": i, "seed": seed, "setup_ms": ms(setupEnd - start),
			"total_ms": ms(end - start), "events": events, "messages": msgs})
	}
	p.stop(m)
	p.ln = ln
	return p, nil
}

// unanimity reports a violation unless every correct node decided want
// for General g.
func unanimity(res *sim.Result, g protocol.NodeID, want protocol.Value) []string {
	decs := res.Decisions(g)
	var out []string
	if len(decs) != len(res.Correct) {
		out = append(out, fmt.Sprintf("unanimity: %d of %d correct nodes returned", len(decs), len(res.Correct)))
	}
	for _, d := range decs {
		if !d.Decided || d.Value != want {
			out = append(out, fmt.Sprintf("unanimity: node %d returned decided=%v value=%q, want %q", d.Node, d.Decided, d.Value, want))
			break
		}
	}
	return out
}

func violationStrings(vs []check.Violation) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// Replicated-log parameters of sim-log-c16: n=16 (f=5), 16 footnote-9
// sessions per node, and per unit logArrivals open-loop Poisson arrivals
// at General 0 with mean gap Δ0/10. The IG1 capacity of 16 sessions is
// 16/Δ0, so the offered load is 10/16 of it and nothing is shed.
const (
	logN        = 16
	logSessions = 16
	logArrivals = 200
)

// logMeanGap is the mean Poisson inter-arrival gap of sim-log-c16.
func logMeanGap(pp protocol.Params) simtime.Duration { return pp.Delta0() / 10 }

// logHorizon bounds the virtual time one log needs, as service.RunSim
// does: after the last arrival each queued entry waits at most one Δ0
// per session round and takes at most Δagr + 8d, plus slack.
func logHorizon(pp protocol.Params, sessions int, arrivals []simtime.Real) simtime.Duration {
	rounds := simtime.Duration((len(arrivals)+sessions-1)/sessions + 2)
	return simtime.Duration(arrivals[len(arrivals)-1]) + rounds*pp.Delta0() + pp.DeltaAgr() + 16*pp.D
}

// simBackend drives initiations straight into the General's node inside
// the scheduler, like the simulator backend of service.RunSim, and counts
// attempts and sending-validity refusals.
type simBackend struct {
	w        *simnet.World
	ln       *lane
	attempts int64
	refusals int64
}

func (b *simBackend) Initiate(g protocol.NodeID, slot int, v protocol.Value) (protocol.Value, error) {
	b.attempts++
	b.ln.enter(lBackend)
	var err error
	if n, ok := b.w.Node(g).(sim.SlotInitiator); ok {
		err = n.InitiateAgreement(slot, v)
	} else {
		err = fmt.Errorf("node %d cannot initiate into slots", g)
	}
	b.ln.exit()
	if isRefusal(err) {
		b.refusals++
	}
	return protocol.SlotValue(slot, v), err
}

func isRefusal(err error) bool {
	return errors.Is(err, core.ErrTooSoon) || errors.Is(err, core.ErrBackoff)
}

// stepMark pairs a pump poll's virtual instant with its wall instant.
type stepMark struct {
	at   simtime.Real
	wall time.Duration
}

// wallAt maps virtual instant t to the wall instant of the first poll at
// or after it (the poll that observed t).
func wallAt(steps []stepMark, t simtime.Real) time.Duration {
	i := sort.Search(len(steps), func(i int) bool { return steps[i].at >= t })
	if i == len(steps) {
		i--
	}
	return steps[i].wall
}

// runSimLog runs replicated logs at n=16 through 16 sessions on the
// simulator until the window closes. One operation is one committed log
// entry; a unit is one log of logArrivals arrivals judged by
// service.Battery.
func runSimLog(rc runConfig) (*pass, error) {
	pp := protocol.DefaultParams(logN)
	poll := pp.D / 4
	p := newPass("commit", rc)
	var ln *lane
	if rc.traced {
		ln = &lane{}
	}
	// A unit sets up only once, so set-up is also timed on its own:
	// setupReps worlds built and started, then run for one tick.
	for r := 0; r < setupReps; r++ {
		start := mono()
		var setupEnd time.Duration
		_, err := sim.Run(sim.Scenario{
			Params:  pp,
			Seed:    unitSeed(rc.seed, r),
			RunFor:  1,
			NewNode: func() protocol.Node { return indexed.NewNode(logSessions) },
			Drive:   func(*simnet.World) { setupEnd = mono() },
		})
		if err != nil {
			return nil, fmt.Errorf("sim-log-c16 set-up: %w", err)
		}
		p.setups = append(p.setups, setupEnd-start)
	}
	m := startMeter()
	for i := 0; !p.done(m, i); i++ {
		seed := unitSeed(rc.seed, i)
		arrivals := service.PoissonArrivals(seed, simtime.Real(2*pp.D), logMeanGap(pp), logArrivals)
		start := mono()
		var setupEnd time.Duration
		var pump *service.Pump
		var be *simBackend
		var steps []stepMark
		sc := sim.Scenario{
			Params: pp,
			Seed:   seed,
			RunFor: logHorizon(pp, logSessions, arrivals),
			NewNode: func() protocol.Node {
				if ln == nil {
					return indexed.NewNode(logSessions)
				}
				return wrapNode(indexed.NewNode(logSessions), ln, nil)
			},
			Drive: func(w *simnet.World) {
				setupEnd = mono()
				ln.enter(lSimtime)
				be = &simBackend{w: w, ln: ln}
				pump = service.NewPump(service.PumpConfig{
					Params:   pp,
					Backend:  be,
					Recorder: w.Recorder(),
					Sessions: logSessions,
					Loads:    []service.Workload{{G: 0, Arrivals: arrivals}},
				})
				var tick func()
				tick = func() {
					now := w.Now()
					steps = append(steps, stepMark{at: now, wall: mono()})
					ln.enter(lStep)
					pump.Step(now)
					ln.exit()
					if !pump.Idle() {
						w.Scheduler().At(now+simtime.Real(poll), tick)
					}
				}
				w.Scheduler().At(0, tick)
			},
		}
		res, err := sim.Run(sc)
		if err != nil {
			return nil, fmt.Errorf("sim-log-c16 seed %d: %w", seed, err)
		}
		ln.exit()
		logs := pump.Results()
		ln.enter(lCheck)
		vs := service.Battery(res, logs)
		ln.exit()

		events := int64(res.World.Scheduler().Processed())
		msgs, _ := res.World.MessageCount()
		p.pinUnit(i, ln, map[string]int64{"simtime.events": events, "simnet.messages": msgs})
		st := logs[0].Stats()
		p.attempted += st.Proposed
		bad := violationStrings(vs)
		if st.Committed != st.Proposed || st.Dropped > 0 || st.Failed > 0 {
			bad = append(bad, fmt.Sprintf("log incomplete: committed=%d dropped=%d failed=%d of %d",
				st.Committed, st.Dropped, st.Failed, st.Proposed))
		}
		if len(bad) > 0 {
			p.fail(fmt.Sprintf("log seed %d", seed), bad)
			p.failed += st.Proposed
			continue
		}
		p.ops += float64(st.Committed)
		p.setups = append(p.setups, setupEnd-start)
		p.count("simtime.events", events)
		p.count("simnet.messages", msgs)
		p.count("service.initiate_attempts", be.attempts)
		p.count("service.ig_refusals", be.refusals)
		for _, e := range logs[0].Committed {
			wall := wallAt(steps, e.CommittedAt) - wallAt(steps, e.ArrivedAt)
			p.lat = append(p.lat, ms(wall))
			p.queueWait = append(p.queueWait, float64(e.InitiatedAt-e.ArrivedAt))
			p.agree = append(p.agree, float64(e.CommittedAt-e.InitiatedAt))
			p.span(map[string]any{"unit": i, "seed": seed, "entry": e.Index, "slot": e.Slot,
				"arrived_tick": e.ArrivedAt, "initiated_tick": e.InitiatedAt, "committed_tick": e.CommittedAt,
				"wall_ms": ms(wall)})
		}
	}
	p.stop(m)
	p.ln = ln
	return p, nil
}
