package harness

import (
	"fmt"

	"ssbyz/internal/metrics"
	"ssbyz/internal/nettrans"
	"ssbyz/internal/protocol"
	"ssbyz/internal/simnet"
	"ssbyz/internal/simtime"
)

// Experiments V1/V2 "Deterministic live campaign": the live runtimes — the
// socket-shaped nettrans pipeline (V1) and the replicated-log service over
// it (V2) — run under virtual time on a clock.Fake over the deterministic
// in-memory wire (DESIGN.md §9). The SAME code as L1/L2 executes above the
// transport: wire codec, source authentication, epoch checks, deadline
// drops, chaos schedules, event loops, the pump. What changes is time:
// every timer fires in (deadline, seq) order and every cascade drains
// before the next, so — unlike L1/L2, whose wall-clock numbers vary with
// the host — these cells are exactly reproducible and their columns are
// reported in ticks and multiples of d. That is why V1/V2 live in All()
// and the default `go test ./...` while L1/L2 need `-live`: a deterministic
// live campaign can gate CI byte-for-byte.

// virtConfig is one V1 sweep cell configuration.
type virtConfig struct {
	label     string
	n         int
	transport string
	conds     []simnet.Condition
	faulty    map[protocol.NodeID]protocol.Node
}

// V1VirtualLive is the deterministic mirror of L1: the same committee
// sweep, TCP baseline, and chaos replay, over the virtual wire. Cells run
// on the shared worker pool — each owns its fake clock, so parallelism
// cannot perturb the cells, and the report is byte-identical for every
// Workers setting and every run.
func V1VirtualLive(opt Options) *Result {
	r := &Result{ID: "V1", Title: "Deterministic live campaign: the socket pipeline under virtual time"}
	seeds := 2
	if !opt.Quick {
		seeds = 5
	}
	horizon := simtime.Real(simtime.Duration(10000) * liveD)
	configs := []virtConfig{
		{"udp", 4, nettrans.TransportUDP, nil, nil},
		{"udp", 7, nettrans.TransportUDP, nil, nil},
		{"udp", 16, nettrans.TransportUDP, nil, nil},
		{"tcp", 4, nettrans.TransportTCP, nil, nil},
		{"udp+chaos", 7, nettrans.TransportUDP,
			[]simnet.Condition{
				{Kind: simnet.CondJitter, From: 0, Until: horizon, Jitter: liveD / 4},
				{Kind: simnet.CondPartition, From: 0, Until: horizon, Nodes: []protocol.NodeID{6}},
			},
			map[protocol.NodeID]protocol.Node{6: nil}},
	}
	grid := sweep(opt, configs, seeds, func(cfg virtConfig, seed int) liveCell {
		return runLiveCell(cfg.n, cfg.transport, cfg.conds, cfg.faulty,
			int64(cfg.n)*1000+int64(seed), true)
	})
	t := metrics.NewTable(
		fmt.Sprintf("virtual-time live agreement (d = %d ticks; all columns deterministic)", liveD),
		"transport", "n", "f", "seeds", "p50 ticks", "p95 ticks", "max ticks", "p50 (d)",
		"msgs/agr", "late drops", "chaos drops", "violations")
	for ci, cfg := range configs {
		liveRow(t, cfg.label, cfg.n, seeds, grid[ci], r, true)
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"same pipeline as L1 — wire codec, authentication, deadline drops, chaos — but timers fire on a fake clock over the deterministic in-memory wire, so every number above is exact and reproducible (DESIGN.md §9)",
		"latencies are in ticks of virtual time, not wall milliseconds: the run is a schedule, not a measurement, and it is byte-identical across runs, hosts, and worker counts",
		"the chaos row replays the L1 ConditionSchedule (jitter everywhere + partition around a crashed node) with a clean battery — deterministically, every time",
	)
	return r
}

// V2VirtualService is the deterministic mirror of L2: the replicated-log
// service with footnote-9 concurrent sessions, driven by the pump under
// virtual time.
func V2VirtualService(opt Options) *Result {
	r := &Result{ID: "V2", Title: "Deterministic live service: replicated log under virtual time"}
	seeds, entries := 2, 6
	if !opt.Quick {
		seeds, entries = 3, 12
	}
	t := metrics.NewTable(
		fmt.Sprintf("replicated-log service over the virtual wire (n=4, d = %d ticks, %d entries)", liveD, entries),
		"transport", "sessions", "seeds", "committed", "p50 commit ticks", "violations")
	sessionsSweep := []int{1, 8}
	grid := sweep(opt, sessionsSweep, seeds, func(sessions, seed int) svcLiveCell {
		return runSvcLiveCell(sessions, entries, seed, true)
	})
	for ci, sessions := range sessionsSweep {
		var committed float64
		var lats []float64
		violations := 0
		for _, out := range grid[ci] {
			committed += float64(out.committed)
			lats = append(lats, out.lats...)
			violations += out.violations
			for _, e := range out.errs {
				r.Notes = append(r.Notes, fmt.Sprintf("sessions=%d: %s", sessions, e))
			}
		}
		s := metrics.Summarize(lats)
		t.AddRow("virtual", sessions, seeds, committed/float64(seeds),
			fmt.Sprintf("%.0f", s.P50), violations)
		r.Violations += violations
	}
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes,
		"the L2 burst as a deterministic schedule: the pump advances the fake clock a quarter-d at a time, sessions multiplex over the virtual wire, and commit latencies come out in exact ticks",
	)
	return r
}
