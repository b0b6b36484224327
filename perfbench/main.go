// Command perfbench is the repository's benchmark. It runs one workload
// per invocation, measures it for a fixed window, checks every output for
// correctness, and prints its metrics; the last line of standard output
// is one JSON object with the keys correct, attempted, failed and
// metrics. See README.md in this directory for the workloads, the
// metrics and how to read a traced run.
//
//	go run . --workload sim-agree-n64 --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

type workload struct {
	name string
	// throughput names ops_per_s for this workload, as printed, and
	// opSize is how many of its units one operation is.
	throughput string
	opSize     float64
	// latency names what latency_ms measures on this workload.
	latency string
	// minUnits is the pinned prefix every pass completes.
	minUnits int
	// live workloads run the protocol in wall time over real sockets.
	live bool
	// node is the protocol layer whose handlers the node seam times.
	node string
	run  func(runConfig) (*pass, error)
}

var workloads = []workload{
	{name: "sim-agree-n64", throughput: "agree_per_s", opSize: 1, latency: "wall per agreement", minUnits: 1, node: "core", run: runSimAgree},
	{name: "sim-log-c16", throughput: "sim_commits_per_s", opSize: 1, latency: "wall from arrival to commit in simulation", minUnits: 2, node: "indexed", run: runSimLog},
	{name: "udp-pump-n16", throughput: "pump_msgs_per_s", opSize: 1000, latency: "flood round, first send to last delivery", minUnits: 1, live: true, run: runUDPPump},
	{name: "udp-log-n7", throughput: "commits_per_s", opSize: 1, latency: "commit_ms: arrival due to General decide", minUnits: 0, live: true, node: "indexed", run: runUDPLog},
}

// outDir holds each traced run's spans and CPU profile.
const outDir = ".bench_build/perfbench-out"

func main() {
	name := flag.String("workload", "", "workload to run: sim-agree-n64, sim-log-c16, udp-pump-n16 or udp-log-n7")
	seed := flag.Int64("seed", 1, "workload seed: every input is drawn from it")
	seconds := flag.Int("seconds", 20, "measured window per pass, in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	pinSeeds := flag.Int("pin-seeds", 0, "print the pinned counters of the simulator workloads for seeds [0, n) as JSON and exit")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *pinSeeds > 0 {
		if err := printPins(*pinSeeds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	rc := runConfig{workload: w.name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, minUnits: w.minUnits}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d gomaxprocs=%d %s\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0), runtime.Version())

	var res result
	var err error
	if *trace == 0 {
		res, err = untraced(w, rc)
	} else {
		res, err = traced(w, rc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res) // only numbers, strings and bools
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints one metric line and adds it to res.
func (r *result) report(name string, v float64, unit, note string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-30s %14.6g %-9s %s\n", name, v, unit, note)
}

// verdict checks a pass's outputs and pinned counters and prints every
// violation. It returns the result skeleton.
func verdict(w *workload, p *pass) result {
	pinViolations, pinNotes := checkPins(w.name, p)
	p.violations = append(p.violations, pinViolations...)
	for _, n := range append(pinNotes, p.notes...) {
		fmt.Println("  note:", n)
	}
	for _, v := range p.violations {
		fmt.Println("  VIOLATION:", v)
	}
	attempted := p.attempted
	if attempted < 1 {
		attempted = 1
	}
	failed := p.failed
	if len(p.violations) > 0 && failed == 0 {
		failed = 1
	}
	return result{Correct: len(p.violations) == 0 && p.failed == 0 && p.ops > 0, Attempted: attempted, Failed: failed}
}

// untraced measures the end-to-end metrics with no instrumentation.
func untraced(w *workload, rc runConfig) (result, error) {
	p, err := w.run(rc)
	if err != nil {
		return result{}, err
	}
	fmt.Println(" ", p)
	res := verdict(w, p)
	n := len(p.lat)
	res.report("setup_s", medianDur(p.setups).Seconds(), "s", fmt.Sprintf("median of %d set-ups", len(p.setups)))
	res.report("ops_per_s", p.opsPerSec(), "1/s", fmt.Sprintf("%s = %.6g, over %.0f %ss", w.throughput, p.opsPerSec()*w.opSize, p.ops, p.op))
	res.report("latency_ms_p50", quantile(p.lat, 0.50), "ms", fmt.Sprintf("%s, n=%d, %d beyond", w.latency, n, beyond(n, 0.50)))
	// The tail is printed, not gated: see README.md.
	fmt.Printf("  %-30s %14.6g %-9s %s, n=%d, %d beyond\n", "(latency_ms_p95)", quantile(p.lat, 0.95), "ms", w.latency, n, beyond(n, 0.95))
	res.report("cpu_ms_per_op", p.perOpMS(p.cpu), "ms", fmt.Sprintf("user+sys %.2fs over %.0f %ss", p.cpu.Seconds(), p.ops, p.op))
	res.report("peak_rss_mb", peakRSSMB(), "MB", "process peak resident set")
	return res, nil
}

// primaryCost is the figure the tracing overhead is read on: commit
// latency where the protocol runs in wall time, time per operation
// elsewhere.
func primaryCost(w *workload, p *pass) float64 {
	if w.node != "" && w.live {
		return quantile(p.lat, 0.5)
	}
	return 1000 / p.opsPerSec()
}

// traced runs an untraced reference pass of half the window, then the
// traced pass under a CPU profile, and prints the per-layer metrics.
func traced(w *workload, rc runConfig) (result, error) {
	ref := rc
	ref.seconds = rc.seconds / 2
	rp, err := w.run(ref)
	if err != nil {
		return result{}, err
	}
	fmt.Println("  untraced reference:", rp)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, rc.seed))
	prof, err := os.Create(stem + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return result{}, err
	}
	rc.traced = true
	p, err := w.run(rc)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("write profile: %w", cerr)
	}
	if err != nil {
		return result{}, err
	}
	fmt.Println("  traced:", p)
	res := verdict(w, p)
	res.Correct = res.Correct && len(rp.violations) == 0 && rp.failed == 0
	for _, v := range rp.violations {
		fmt.Println("  VIOLATION (reference pass):", v)
	}

	shares, samples, err := cpuShares(stem + ".cpu.pprof")
	if err != nil {
		return result{}, err
	}
	layerMetrics(&res, w, p, shares, samples)
	overhead := 100 * (primaryCost(w, p)/primaryCost(w, rp) - 1)
	res.report("trace.overhead_pct", overhead, "%", fmt.Sprintf("traced %.4g vs untraced %.4g ms", primaryCost(w, p), primaryCost(w, rp)))
	if err := writeSpans(stem+".spans.jsonl", p); err != nil {
		return result{}, err
	}
	fmt.Printf("  spans: %s.spans.jsonl  profile: %s.cpu.pprof\n", stem, stem)
	return res, nil
}

// layerMetrics reports the per-layer metrics of a traced pass. Times and
// counts are per operation; drop counts are run totals.
func layerMetrics(res *result, w *workload, p *pass, shares map[string]float64, samples int) {
	ln := p.ln
	a := ln.acc
	perMS := func(d time.Duration) float64 { return p.perOpMS(d) }
	perN := func(n int64) float64 { return p.perOp(float64(n)) }
	sim := !w.live
	pick := func(on bool, v float64) float64 {
		if on {
			return v
		}
		return 0
	}
	handlerSelf := a[lNode].self + a[lInitiate].self
	op := "/" + p.op

	res.report("simtime.dispatch_ms", perMS(a[lSimtime].self), "ms/op", "RunUntil minus node handlers and pump polls"+op)
	res.report("simtime.events", perN(p.counts["simtime.events"]), "count/op", "Scheduler.Processed"+op)
	res.report("simnet.send_ms", pick(sim, perMS(a[lSend].total)), "ms/op", "Runtime.Broadcast/Send"+op)
	res.report("simnet.broadcasts", pick(sim, perN(ln.broadcasts)), "count/op", "Runtime.Broadcast calls"+op)
	res.report("simnet.messages", perN(p.counts["simnet.messages"]), "count/op", "World.MessageCount"+op)
	res.report("core.self_ms", pick(w.node == "core", perMS(handlerSelf)), "ms/op", "core handlers minus runtime calls"+op)
	res.report("core.handler_calls", perN(a[lNode].calls), "count/op", "OnMessage+OnTimer deliveries"+op)
	res.report("indexed.self_ms", pick(w.node == "indexed", perMS(handlerSelf)), "ms/op", "indexed (and its core slots) minus runtime calls"+op)
	res.report("indexed.initiate_ms", pick(w.node == "indexed", perMS(a[lInitiate].total)), "ms/op", "InitiateAgreement(slot, v)"+op)
	res.report("protocol.trace_ms", perMS(a[lTrace].total), "ms/op", "Runtime.Trace into the Recorder"+op)
	res.report("protocol.trace_events", perN(a[lTrace].calls), "count/op", "trace events"+op)
	res.report("check.battery_ms", perMS(a[lCheck].total), "ms/op", "check.All / service.Battery"+op)
	res.report("service.step_ms", perMS(a[lStep].total), "ms/op", "Pump.Step"+op)
	res.report("service.steps", perN(a[lStep].calls), "count/op", "Pump.Step calls"+op)
	res.report("service.initiate_ms", perMS(a[lBackend].total), "ms/op", "Backend.Initiate"+op)
	res.report("service.initiate_attempts", perN(p.counts["service.initiate_attempts"]), "count/op", "Backend.Initiate calls"+op)
	res.report("service.ig_refusals", perN(p.counts["service.ig_refusals"]), "count/op", "IG1/IG3 refusals"+op)
	unit := "ticks"
	if w.live && w.node != "" {
		unit = "ms" // the service runs in wall time
	}
	res.report("service.queue_wait_p50", quantile(p.queueWait, 0.5), unit, fmt.Sprintf("InitiatedAt-ArrivedAt, n=%d", len(p.queueWait)))
	res.report("service.agree_p50", quantile(p.agree, 0.5), unit, fmt.Sprintf("CommittedAt-InitiatedAt, n=%d", len(p.agree)))
	res.report("gc.alloc_mb_per_op", p.perOp(float64(p.allocBytes)/1e6), "MB/op", "runtime.MemStats.TotalAlloc"+op)
	res.report("gc.cycles", p.perOp(float64(p.gcCycles)), "count/op", "runtime.MemStats.NumGC"+op)
	res.report("nettrans.sent", perN(p.counts["nettrans.sent"]), "count/op", "Stats.Sent"+op)
	res.report("nettrans.received", perN(p.counts["nettrans.received"]), "count/op", "Stats.Received"+op)
	for _, k := range []string{"nettrans.loss_share", "nettrans.frames_per_container"} {
		res.report(k, p.extra[k], "ratio", "")
	}
	for _, k := range []string{"nettrans.late_drops", "nettrans.dup_drops", "nettrans.decode_drops"} {
		res.report(k, p.extra[k], "count", "run total")
	}
	res.report("nettrans.broadcast_ms", pick(w.live, perMS(a[lSend].total)), "ms/op", "NetNode Broadcast (encode + coalescer park)"+op)
	for _, b := range cpuBuckets {
		res.report(b.name, shares[b.name], "share", fmt.Sprintf("of %d profile samples", samples))
	}
}

// writeSpans writes the traced pass's per-operation spans, one JSON
// object a line.
func writeSpans(path string, p *pass) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range p.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
