// Faulty General: an equivocating General sends the values "a" and "b" to
// different halves of the network, amplified by a colluding Byzantine
// node. The Agreement property guarantees all-or-none: either every
// correct node decides the same single value, or every correct node
// aborts — never a split.
//
// Run with: go run ./examples/faultygeneral
package main

import (
	"fmt"
	"log"

	"ssbyz"
)

func main() {
	splitsSeen := 0
	for seed := int64(0); seed < 10; seed++ {
		// Node 0 is a Byzantine General equivocating between two values
		// at t = 2d; node 6 colludes by amplifying every wave it sees.
		const d = ssbyz.Ticks(1000)
		eng, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSeed(seed), ssbyz.WithD(d),
			ssbyz.WithFaultyNode(0, ssbyz.EquivocatingGeneral(2*d, "a", "b")),
			ssbyz.WithFaultyNode(6, ssbyz.Colluder()))
		if err != nil {
			log.Fatal(err)
		}

		report, err := eng.Run(5 * eng.Params().DeltaAgr())
		if err != nil {
			log.Fatal(err)
		}

		values := map[ssbyz.Value]int{}
		aborts := 0
		for _, d := range report.Decisions(0) {
			if d.Decided {
				values[d.Value]++
			} else {
				aborts++
			}
		}
		fmt.Printf("seed %2d: decides=%v aborts=%d", seed, values, aborts)
		switch {
		case len(values) > 1:
			fmt.Print("  ← VALUE SPLIT (impossible for a correct build)")
			splitsSeen++
		case len(values) == 1:
			fmt.Print("  → all-decide outcome")
		default:
			fmt.Print("  → all-abort outcome (allowed for a faulty General)")
		}
		fmt.Println()

		if vs := report.Check(0); len(vs) > 0 {
			log.Fatalf("seed %d: property violations: %v", seed, vs)
		}
	}
	if splitsSeen > 0 {
		log.Fatalf("%d value splits observed", splitsSeen)
	}
	fmt.Println("\nno value splits across all seeds — Agreement holds under equivocation ✓")
}
