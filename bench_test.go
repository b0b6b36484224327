package ssbyz_test

import (
	"io"
	"runtime"
	"testing"

	"ssbyz"
	"ssbyz/internal/harness"
)

// One benchmark per experiment of DESIGN.md §4. Each iteration runs the
// experiment's full quick-mode sweep (the same code path whose tables
// `ssbyz-bench -o` records) and fails the benchmark on any property
// violation, so `go test -bench .` doubles as the reproduction gate.
// cmd/ssbyz-bench runs the same experiments at full scale.

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var ex *harness.Experiment
	for _, e := range harness.All() {
		if e.ID == id {
			e := e
			ex = &e
			break
		}
	}
	if ex == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := ex.Run(harness.Options{Quick: true})
		if res.Violations != 0 {
			b.Fatalf("%s: %d property violations", id, res.Violations)
		}
	}
}

func BenchmarkE1ValidityLatency(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2AgreementSkew(b *testing.B)        { benchExperiment(b, "E2") }
func BenchmarkE3TerminationBound(b *testing.B)     { benchExperiment(b, "E3") }
func BenchmarkE4EarlyStopping(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5MessageDrivenSpeedup(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6Convergence(b *testing.B)          { benchExperiment(b, "E6") }
func BenchmarkE7FaultyGeneralAgreement(b *testing.B) {
	benchExperiment(b, "E7")
}
func BenchmarkE8InitiatorAccept(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9MsgdBroadcast(b *testing.B)      { benchExperiment(b, "E9") }
func BenchmarkE10MessageComplexity(b *testing.B) { benchExperiment(b, "E10") }
func BenchmarkF1LatencyVsN(b *testing.B)         { benchExperiment(b, "F1") }
func BenchmarkF2LatencyVsDelta(b *testing.B)     { benchExperiment(b, "F2") }
func BenchmarkF3RecoveryTimeline(b *testing.B)   { benchExperiment(b, "F3") }
func BenchmarkF4PulseSkew(b *testing.B)          { benchExperiment(b, "F4") }

// BenchmarkS1Scaling runs the large-n scaling workload (n up to 64) —
// the experiment the msglog/scheduler/delivery hot-path rework exists
// for (DESIGN.md §5).
func BenchmarkS1Scaling(b *testing.B) { benchExperiment(b, "S1") }

// BenchmarkS2Campaign runs the randomized adversarial campaign — the
// scenario engine generating and checking hundreds of adversarial
// scenarios against the full battery (DESIGN.md §6).
func BenchmarkS2Campaign(b *testing.B) { benchExperiment(b, "S2") }

// BenchmarkS3Service runs the replicated-log service throughput sweep —
// open-loop Poisson clients draining through footnote-9 concurrent
// sessions (DESIGN.md §8).
func BenchmarkS3Service(b *testing.B) { benchExperiment(b, "S3") }

// BenchmarkSingleAgreement measures the simulator's cost of one complete
// fault-free agreement (7 nodes, ~350 messages) — the unit of work every
// experiment above multiplies.
func BenchmarkSingleAgreement(b *testing.B) { benchSingleAgreement(b, 7) }

// BenchmarkSingleAgreementN25 is the same unit at n=25 (f=8).
func BenchmarkSingleAgreementN25(b *testing.B) { benchSingleAgreement(b, 25) }

func benchSingleAgreement(b *testing.B, n int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng, err := ssbyz.New(ssbyz.WithN(n), ssbyz.WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		s, err := eng.OpenSession(0)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.ProposeAt("bench", 2*eng.Params().D); err != nil {
			b.Fatal(err)
		}
		report, err := eng.Run(0)
		if err != nil {
			b.Fatal(err)
		}
		if !report.Unanimous(0, "bench") {
			b.Fatal("agreement failed")
		}
	}
}

// BenchmarkExperimentReport measures rendering the full quick-mode suite
// report (the cmd/ssbyz-bench hot path) strictly sequentially — the
// Workers=1 anchor BenchmarkSuiteParallel is compared against.
func BenchmarkExperimentReport(b *testing.B) {
	benchSuite(b, 1)
}

// BenchmarkSuiteParallel is the same quick-mode suite with cells fanned
// across GOMAXPROCS workers; the ratio to BenchmarkExperimentReport is the
// harness's parallel speedup on this machine (output is byte-identical).
func BenchmarkSuiteParallel(b *testing.B) {
	benchSuite(b, runtime.GOMAXPROCS(0))
}

func benchSuite(b *testing.B, workers int) {
	b.Helper()
	if testing.Short() {
		b.Skip("suite run is seconds-long")
	}
	for i := 0; i < b.N; i++ {
		violations, err := ssbyz.RunExperiments(io.Discard, ssbyz.ExperimentOptions{Quick: true, Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if violations != 0 {
			b.Fatalf("%d property violations", violations)
		}
	}
}
