// Transient recovery: the self-stabilization demo. At t = 0 every node's
// entire protocol state is corrupted to arbitrary garbage (i_values,
// rate-limit variables, ready flags, message logs, phantom anchors,
// "already returned" control states, spurious in-flight messages). A
// correct General then initiates agreements periodically; the run shows
// the early ones failing or being refused and, within Δstb = 2Δreset of
// coherence, the system converging to fully verified agreements.
//
// Run with: go run ./examples/transientrecovery
package main

import (
	"fmt"
	"log"

	"ssbyz"
)

func main() {
	// Corrupt everything at the moment the network becomes coherent.
	eng, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSeed(7), ssbyz.WithTransientFault(1234, 1.0))
	if err != nil {
		log.Fatal(err)
	}
	pp := eng.Params()
	fmt.Printf("Δ0=%d Δrmv=%d Δreset=%d Δstb=%d (all ticks, d=%d)\n\n",
		pp.Delta0(), pp.DeltaRmv(), pp.DeltaReset(), pp.DeltaStb(), pp.D)
	general, err := eng.OpenSession(0)
	if err != nil {
		log.Fatal(err)
	}

	// The General retries a fresh value every Δ0 + 2d.
	spacing := pp.Delta0() + 2*pp.D
	var at ssbyz.Ticks
	values := []ssbyz.Value{}
	for i := 0; at < pp.DeltaStb()+4*pp.DeltaAgr(); i++ {
		v := ssbyz.Value(fmt.Sprintf("attempt-%d", i))
		values = append(values, v)
		if err := general.ProposeAt(v, at); err != nil {
			log.Fatal(err)
		}
		at += spacing
	}

	report, err := eng.Run(at + 3*pp.DeltaAgr())
	if err != nil {
		log.Fatal(err)
	}

	refused := report.InitiationErrors()
	firstVerified := -1
	for i, v := range values {
		t0 := ssbyz.Ticks(i) * spacing
		status := "no verified agreement"
		if _, r := refused[i]; r {
			status = "refused by sending-validity criteria (IG1–IG3)"
		} else if report.Verified(0, v, t0) {
			status = "agreed within [t0−d, t0+4d] ✓"
			if firstVerified < 0 {
				firstVerified = i
			}
		} else if len(report.DecisionsFor(0, v)) > 0 {
			status = fmt.Sprintf("partial: %d nodes decided", len(report.DecisionsFor(0, v)))
		}
		// Print the interesting prefix: everything until two past the
		// first verified agreement.
		if firstVerified < 0 || i <= firstVerified+2 {
			fmt.Printf("t=%7d (%5.2f·Δstb)  %-12s %s\n",
				t0, float64(t0)/float64(pp.DeltaStb()), v, status)
		}
	}

	if firstVerified < 0 {
		log.Fatal("system never converged — self-stabilization failed")
	}
	conv := ssbyz.Ticks(firstVerified) * spacing
	fmt.Printf("\nfirst fully-verified agreement at t=%d = %.2f·Δstb after coherence\n",
		conv, float64(conv)/float64(pp.DeltaStb()))
	if conv > pp.DeltaStb() {
		log.Fatal("convergence exceeded the Δstb bound")
	}
	fmt.Println("convergence within Δstb ✓")
}
