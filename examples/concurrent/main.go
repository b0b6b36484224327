// Concurrent invocations: the paper's footnote-9 extension. A correct
// General normally spaces its initiations by Δ0 = 13d (criterion IG1);
// indexing lets one General run several agreements at the same instant,
// one per slot, each with its own rate-limit state — "adding counters to
// concurrent agreement initiations".
//
// Run with: go run ./examples/concurrent
package main

import (
	"fmt"
	"log"

	"ssbyz"
)

func main() {
	// Three agreements by the SAME General at the SAME instant — refused
	// under plain IG1, legal across indexed slots (one session each).
	values := []ssbyz.Value{"shard-a", "shard-b", "shard-c"}
	eng, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSeed(33), ssbyz.WithSessions(len(values)))
	if err != nil {
		log.Fatal(err)
	}
	pp := eng.Params()
	t0 := 2 * pp.D
	sessions := make([]*ssbyz.Session, len(values))
	for slot, v := range values {
		if sessions[slot], err = eng.OpenSession(0); err != nil {
			log.Fatal(err)
		}
		if err := sessions[slot].ProposeAt(v, t0); err != nil {
			log.Fatal(err)
		}
	}

	report, err := eng.Run(3 * pp.DeltaAgr())
	if err != nil {
		log.Fatal(err)
	}
	if errs := report.InitiationErrors(); len(errs) != 0 {
		log.Fatalf("initiations refused: %v", errs)
	}

	for slot, want := range values {
		decs := sessions[slot].Decisions(report.Report)
		if len(decs) != pp.N {
			log.Fatalf("slot %d: %d/%d nodes decided", slot, len(decs), pp.N)
		}
		var last int64
		for _, d := range decs {
			if d.Value != want {
				log.Fatalf("slot %d: node %d decided %q, want %q", slot, d.Node, d.Value, want)
			}
			if int64(d.RT) > last {
				last = int64(d.RT)
			}
		}
		fmt.Printf("slot %d: all %d nodes decided %q by t=%d (%.2fd after initiation)\n",
			slot, pp.N, want, last, float64(last-int64(t0))/float64(pp.D))
	}
	fmt.Println("\nthree concurrent agreements by one General, all within the validity window ✓")
}
