// Pulse synchronization: the companion layer built on top of ss-Byz-Agree.
// Correct nodes fire recurring pulses; once stable, every cycle's pulses
// land within the agreement's 3d decision skew of each other — a
// self-stabilizing Byzantine "heartbeat" that can clock any classic
// synchronous algorithm. Two Byzantine nodes sit in the General rotation
// and are routed around by the fallback.
//
// Run with: go run ./examples/pulse
package main

import (
	"fmt"
	"log"
	"sort"

	"ssbyz"
)

func main() {
	// All correct nodes run the pulse layer; nodes 0 and 1 are faulty
	// (crashed), so the first two cycle-Generals never initiate and the
	// fallback rotation must cover for them.
	eng, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSeed(21),
		ssbyz.WithPulseSynchronization(0), // 0 = minimum legal cycle length
		ssbyz.WithFaultyNode(0, ssbyz.Crashed()),
		ssbyz.WithFaultyNode(1, ssbyz.Crashed()))
	if err != nil {
		log.Fatal(err)
	}
	pp := eng.Params()

	report, err := eng.Run(10 * (pp.Delta0() + 3*pp.DeltaAgr()))
	if err != nil {
		log.Fatal(err)
	}

	byCycle := report.Pulses()
	if len(byCycle) == 0 {
		log.Fatal("no pulses fired")
	}
	cycles := make([]int, 0, len(byCycle))
	for k := range byCycle {
		cycles = append(cycles, k)
	}
	sort.Ints(cycles)

	fmt.Printf("cycle  nodes  skew(ticks)  skew/d   (bound 3d, d=%d)\n", pp.D)
	for _, k := range cycles {
		pulses := byCycle[k]
		lo, hi := pulses[0].RT, pulses[0].RT
		for _, p := range pulses {
			if p.RT < lo {
				lo = p.RT
			}
			if p.RT > hi {
				hi = p.RT
			}
		}
		skew := int64(hi - lo)
		fmt.Printf("%5d  %5d  %11d  %6.2f\n", k, len(pulses), skew, float64(skew)/float64(pp.D))
		if len(pulses) == 5 && skew > 3*int64(pp.D) {
			log.Fatalf("cycle %d: pulse skew %d exceeds the 3d bound", k, skew)
		}
	}
	fmt.Println("\nall complete cycles within the 3d skew bound ✓")
}
