// Quickstart: one agreement among 7 simulated nodes with a correct
// General, verified against the paper's Validity and Timeliness bounds.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"ssbyz"
)

func main() {
	// 7 nodes tolerate f = 2 Byzantine faults (n > 3f).
	eng, err := ssbyz.New(ssbyz.WithN(7), ssbyz.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	pp := eng.Params()
	fmt.Printf("n=%d f=%d d=%d ticks  (Φ=%d Δagr=%d)\n", pp.N, pp.F, pp.D, pp.Phi(), pp.DeltaAgr())

	// Node 0, as the General, initiates agreement on "launch" at t = 2d.
	t0 := 2 * pp.D
	general, err := eng.OpenSession(0)
	if err != nil {
		log.Fatal(err)
	}
	if err := general.ProposeAt("launch", t0); err != nil {
		log.Fatal(err)
	}

	report, err := eng.Run(0)
	if err != nil {
		log.Fatal(err)
	}

	// Every correct node decides the General's value within [t0−d, t0+4d].
	for _, d := range report.Decisions(0) {
		fmt.Printf("node %d decided %q at t=%d (%.2fd after initiation)\n",
			d.Node, d.Value, d.RT, float64(int64(d.RT)-int64(t0))/float64(pp.D))
	}
	if !report.Unanimous(0, "launch") {
		log.Fatal("agreement failed — this should be impossible with a correct General")
	}

	// The library ships machine-checkable versions of every proved bound.
	if vs := report.CheckValidity(0, t0, "launch"); len(vs) > 0 {
		log.Fatalf("validity violations: %v", vs)
	}
	if vs := report.Check(0); len(vs) > 0 {
		log.Fatalf("property violations: %v", vs)
	}
	fmt.Println("all paper bounds verified ✓")
}
