// Command ssbyz-sim runs one ss-Byz-Agree simulation scenario and prints
// the per-node outcomes and property-check results.
//
// Usage:
//
//	ssbyz-sim [-n 7] [-seed 0] [-scenario correct|equivocate|partial|transient|spam] [-v]
//
// Scenarios:
//
//	correct    — a correct General initiates one agreement (default)
//	equivocate — a faulty General sends two values, amplified by a colluder
//	partial    — a faulty General invites only part of the network
//	transient  — full state corruption at t=0, then a correct agreement
//	             after Δstb (the self-stabilization demo)
//	spam       — two faulty nodes flood garbage while a correct agreement runs
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ssbyz"
)

func main() {
	cfg := simConfig{}
	flag.IntVar(&cfg.n, "n", 7, "number of nodes (n > 3f)")
	flag.Int64Var(&cfg.seed, "seed", 0, "random seed (identical seeds reproduce runs)")
	flag.StringVar(&cfg.scenario, "scenario", "correct", "correct|equivocate|partial|transient|spam")
	flag.BoolVar(&cfg.verbose, "v", false, "print every decision")
	flag.Parse()
	if err := runScenario(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssbyz-sim:", err)
		os.Exit(1)
	}
}

// simConfig carries the parsed flags.
type simConfig struct {
	n        int
	seed     int64
	scenario string
	verbose  bool
}

// runScenario assembles, runs, and reports one scenario.
func runScenario(cfg simConfig, w io.Writer) error {
	// d is fixed up front so the adversaries' scripted instants can be
	// expressed in it before the engine exists.
	const d = ssbyz.Ticks(1000)
	opts := []ssbyz.Option{ssbyz.WithN(cfg.n), ssbyz.WithSeed(cfg.seed), ssbyz.WithD(d)}
	t0 := 2 * d
	general := ssbyz.NodeID(0)
	want := ssbyz.Value("")

	switch cfg.scenario {
	case "correct":
		want = "v"
	case "equivocate":
		opts = append(opts,
			ssbyz.WithFaultyNode(0, ssbyz.EquivocatingGeneral(t0, "a", "b")),
			ssbyz.WithFaultyNode(ssbyz.NodeID(cfg.n-1), ssbyz.Colluder()))
	case "partial":
		invitees := []ssbyz.NodeID{1, 2, 3}
		opts = append(opts, ssbyz.WithFaultyNode(0, ssbyz.PartialGeneral(t0, "p", invitees...)))
	case "transient":
		want = "recovered"
		opts = append(opts, ssbyz.WithTransientFault(cfg.seed+1000, 1.0))
	case "spam":
		want = "v"
		opts = append(opts,
			ssbyz.WithFaultyNode(ssbyz.NodeID(cfg.n-1), ssbyz.Spammer()),
			ssbyz.WithFaultyNode(ssbyz.NodeID(cfg.n-2), ssbyz.Spammer()))
	default:
		return fmt.Errorf("unknown scenario %q", cfg.scenario)
	}
	eng, err := ssbyz.New(opts...)
	if err != nil {
		return err
	}
	pp := eng.Params()
	runFor := ssbyz.Ticks(0)
	switch cfg.scenario {
	case "equivocate", "partial":
		runFor = 5 * pp.DeltaAgr()
	case "transient":
		t0 = pp.DeltaStb() + 2*d
		runFor = t0 + 3*pp.DeltaAgr()
	}
	if want != "" {
		s, err := eng.OpenSession(general)
		if err != nil {
			return err
		}
		if err := s.ProposeAt(want, t0); err != nil {
			return err
		}
	}

	report, err := eng.Run(runFor)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "scenario=%s n=%d f=%d d=%d seed=%d\n", cfg.scenario, cfg.n, pp.F, pp.D, cfg.seed)
	decs := report.Decisions(general)
	decided, aborted := 0, 0
	for _, dec := range decs {
		if dec.Decided {
			decided++
		} else {
			aborted++
		}
		if cfg.verbose {
			outcome := "abort ⊥"
			if dec.Decided {
				outcome = fmt.Sprintf("decide %q", dec.Value)
			}
			fmt.Fprintf(w, "  node %-2d %-14s rt=%-8d rt(τG)=%d\n", dec.Node, outcome, dec.RT, dec.RTauG)
		}
	}
	fmt.Fprintf(w, "returned=%d decided=%d aborted=%d messages=%d\n",
		len(decs), decided, aborted, report.Messages())
	for i, err := range report.InitiationErrors() {
		fmt.Fprintf(w, "initiation %d refused: %v\n", i, err)
	}

	violations := report.Check(general)
	if want != "" {
		violations = append(violations, report.CheckValidity(general, t0, want)...)
	}
	if len(violations) == 0 {
		fmt.Fprintln(w, "properties: all checks passed")
		return nil
	}
	for _, v := range violations {
		fmt.Fprintln(w, "VIOLATION:", v)
	}
	return fmt.Errorf("%d property violations", len(violations))
}
