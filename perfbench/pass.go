package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a workload sets up; for a live workload all
// clusters but the last are stopped at once. setup_s is the median.
const setupReps = 15

// runConfig is one measured pass of a workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	// minUnits is the number of units a pass always completes, however
	// short the window: the pinned prefix.
	minUnits int
}

// pass collects what one pass of a workload measured.
type pass struct {
	op string // the unit of work one operation stands for
	rc runConfig

	attempted, failed int
	violations        []string
	notes             []string

	ops        float64 // completed operations
	window     time.Duration
	busy       time.Duration // when set, the span ops_per_s divides by
	cpu        time.Duration // process user+sys CPU over the window
	allocBytes uint64
	gcCycles   uint32

	setups []time.Duration
	lat    []float64 // ms per operation, due → done

	// Service spans in the workload's time unit (ticks on the
	// simulator, ms live).
	queueWait, agree []float64

	counts map[string]int64 // layer work counters, run totals
	extra  map[string]float64
	spans  []map[string]any
	ln     *lane

	// unitPins holds each unit's deterministic counters.
	unitPins []unitPin
	lastPin  [2]int64
}

type unitPin struct {
	unit   int
	seed   int64
	counts map[string]int64
}

func newPass(op string, rc runConfig) *pass {
	return &pass{op: op, rc: rc, counts: map[string]int64{}, extra: map[string]float64{}}
}

// done reports whether the pass should stop before starting unit i.
func (p *pass) done(m *meter, i int) bool {
	return i >= p.rc.minUnits && time.Since(m.start) >= p.rc.seconds
}

func (p *pass) fail(what string, vs []string) {
	for _, v := range vs {
		p.violations = append(p.violations, what+": "+v)
	}
}

func (p *pass) count(name string, v int64) { p.counts[name] += v }

func (p *pass) span(s map[string]any) { p.spans = append(p.spans, s) }

// pinUnit records the deterministic counters of unit i. On a traced
// pass the lane's handler and trace-event counts since the previous unit
// are added.
func (p *pass) pinUnit(i int, ln *lane, counts map[string]int64) {
	if ln != nil {
		h, t := ln.acc[lNode].calls, ln.acc[lTrace].calls
		counts["core.handler_calls"] = h - p.lastPin[0]
		counts["protocol.trace_events"] = t - p.lastPin[1]
		p.lastPin = [2]int64{h, t}
	}
	p.unitPins = append(p.unitPins, unitPin{unit: i, seed: unitSeed(p.rc.seed, i), counts: counts})
}

// meter brackets the measured window: wall time, process CPU and the Go
// allocator.
type meter struct {
	start time.Time
	ru    syscall.Rusage
	mem   runtime.MemStats
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &m.ru) // cannot fail for RUSAGE_SELF
	m.start = time.Now()
	return m
}

func (p *pass) stop(m *meter) {
	p.window = time.Since(m.start)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	p.cpu = cpuTime(ru) - cpuTime(m.ru)
	p.allocBytes = mem.TotalAlloc - m.mem.TotalAlloc
	p.gcCycles = mem.NumGC - m.mem.NumGC
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss is in KiB on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

// perOp divides a run total by the completed operations.
func (p *pass) perOp(v float64) float64 {
	if p.ops == 0 {
		return 0
	}
	return v / p.ops
}

func (p *pass) perOpMS(d time.Duration) float64 { return p.perOp(ms(d)) }

func (p *pass) opsPerSec() float64 {
	if p.busy > 0 {
		return p.ops / p.busy.Seconds()
	}
	return p.ops / p.window.Seconds()
}

// beyond is how many samples lie above the q-quantile.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

func (p *pass) String() string {
	return fmt.Sprintf("%s: %.0f %ss in %.2fs", p.rc.workload, p.ops, p.op, p.window.Seconds())
}
