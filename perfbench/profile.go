package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// CPU attribution of the traced pass. `go tool pprof -raw` prints every
// sample with its stack; each sample goes to one bucket:
//
//   - cpu.gc when any frame is garbage-collector work;
//   - cpu.syscall when a syscall frame comes before any repository frame
//     (walking from the leaf);
//   - otherwise the bucket of the innermost frame in ssbyz/internal/...,
//     so runtime helpers (map probes, memmove, allocation) count to the
//     repository code that called them.
//
// A sample whose innermost non-runtime frame is the benchmark's own (the
// timing wrappers) matches no bucket; such samples, and those of the
// scheduler and idle loops, count only toward the total.

type cpuBucket struct {
	name string
	// match reports whether a repository frame belongs to the bucket.
	match func(fn, file string) bool
}

func inFile(frag string) func(fn, file string) bool {
	return func(_, file string) bool { return strings.Contains(file, frag) }
}

// admitFuncs are the receive-side admission path in nettrans.go; dedup.go
// joins them by file.
var admitFuncs = []string{".admitFrame", ".handleFrame", ".handleBatch", ".handleDatagram", ".expectedEpoch", ".authenticate"}

var cpuBuckets = []cpuBucket{
	{"cpu.wire", inFile("/internal/wire/")},
	{"cpu.nettrans.admit", func(fn, file string) bool {
		if strings.HasSuffix(file, "/internal/nettrans/dedup.go") {
			return true
		}
		for _, f := range admitFuncs {
			if strings.HasPrefix(fn, "ssbyz/internal/nettrans.") && strings.HasSuffix(fn, f) {
				return true
			}
		}
		return false
	}},
	{"cpu.nettrans.coalescer", inFile("/internal/nettrans/batch.go")},
	{"cpu.nettrans.socket", inFile("/internal/nettrans/socket")},
	{"cpu.eventloop", inFile("/internal/eventloop/")},
	{"cpu.simtime", inFile("/internal/simtime/")},
	{"cpu.simnet", inFile("/internal/simnet/")},
	{"cpu.msglog", inFile("/internal/msglog/")},
	{"cpu.protocol", func(_, file string) bool {
		for _, d := range []string{"/internal/core/", "/internal/broadcast/", "/internal/initaccept/", "/internal/indexed/"} {
			if strings.Contains(file, d) {
				return true
			}
		}
		return false
	}},
	{"cpu.syscall", nil},
	{"cpu.gc", nil},
}

func isGCFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.deductSweepCredit", "runtime.markroot", "runtime.scanobject":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

func isSyscallFrame(fn string) bool {
	return strings.HasPrefix(fn, "syscall.") || strings.HasPrefix(fn, "internal/runtime/syscall.")
}

type pframe struct{ fn, file string }

// cpuShares buckets the samples of a CPU profile and returns each
// bucket's share of all samples, and the sample count.
func cpuShares(path string) (map[string]float64, int, error) {
	out, err := exec.Command("go", "tool", "pprof", "-raw", path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof -raw %s: %w", path, err)
	}
	type sample struct {
		n    int
		locs []int
	}
	var samples []sample
	locs := map[int][]pframe{}
	section, cur := "", 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case "Samples:", "Locations", "Mappings":
			section = strings.TrimSpace(line)
			continue
		}
		fields := strings.Fields(line)
		switch section {
		case "Samples:":
			// "  count  value: loc loc ..."
			if len(fields) < 3 || !strings.HasSuffix(fields[1], ":") {
				continue
			}
			n, err := strconv.Atoi(fields[0])
			if err != nil {
				continue
			}
			s := sample{n: n}
			for _, f := range fields[2:] {
				if id, err := strconv.Atoi(f); err == nil {
					s.locs = append(s.locs, id)
				}
			}
			samples = append(samples, s)
		case "Locations":
			// "  id: addr M=m func file:line:col s=start", then inlined
			// callers as "  func file:line:col s=start".
			if len(fields) >= 4 && strings.HasSuffix(fields[0], ":") {
				id, err := strconv.Atoi(strings.TrimSuffix(fields[0], ":"))
				if err != nil {
					continue
				}
				cur = id
				locs[cur] = append(locs[cur], pframe{fn: fields[3], file: fileOf(fields, 4)})
			} else if len(fields) >= 2 && cur != 0 {
				locs[cur] = append(locs[cur], pframe{fn: fields[0], file: fileOf(fields, 1)})
			}
		}
	}
	total := 0
	counts := map[string]int{}
	for _, s := range samples {
		total += s.n
		var stack []pframe
		for _, id := range s.locs {
			stack = append(stack, locs[id]...)
		}
		if b := bucketOf(stack); b != "" {
			counts[b] += s.n
		}
	}
	shares := map[string]float64{}
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b.name] = float64(counts[b.name]) / float64(total)
		}
	}
	return shares, total, nil
}

func fileOf(fields []string, i int) string {
	if i >= len(fields) {
		return ""
	}
	f := fields[i]
	// strip ":line:col"
	for k := 0; k < 2; k++ {
		if j := strings.LastIndexByte(f, ':'); j > 0 {
			f = f[:j]
		}
	}
	return f
}

func bucketOf(stack []pframe) string {
	for _, f := range stack {
		if isGCFrame(f.fn) {
			return "cpu.gc"
		}
	}
	for _, f := range stack {
		if isSyscallFrame(f.fn) {
			return "cpu.syscall"
		}
		if strings.HasPrefix(f.fn, "main.") {
			return "" // the benchmark's own timing wrappers
		}
		if !strings.HasPrefix(f.fn, "ssbyz/internal/") {
			continue
		}
		for _, b := range cpuBuckets {
			if b.match != nil && b.match(f.fn, f.file) {
				return b.name
			}
		}
		return ""
	}
	return ""
}
