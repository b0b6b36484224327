package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// Pinned counters. The simulator workloads are deterministic, so each
// unit's scheduler events, messages, handler calls and trace events are
// exact functions of its seed. pins.json holds them:
//
//   - sim-agree-n64 under "any": every n=64 agreement has the same counts
//     whatever its seed;
//   - sim-log-c16 per unit seed, for the units of the pinned prefix of
//     benchmark seeds 0..31.
//
// A pass whose counts differ from the pins fails: a change that alters
// the work the simulator does must say so, and re-pin with
//
//	go run . --pin-seeds 32 > pins.json
//
//go:embed pins.json
var pinsJSON []byte

type pinTable map[string]map[string]map[string]int64

func loadPins() (pinTable, error) {
	var t pinTable
	if err := json.Unmarshal(pinsJSON, &t); err != nil {
		return nil, fmt.Errorf("pins.json: %w", err)
	}
	return t, nil
}

// checkPins compares every unit's counters with the pins of its seed and
// returns the mismatches as violations, plus notes.
func checkPins(name string, p *pass) (violations, notes []string) {
	t, err := loadPins()
	if err != nil {
		return []string{err.Error()}, nil
	}
	table, ok := t[name]
	if !ok {
		return nil, nil
	}
	pinned := 0
	for _, u := range p.unitPins {
		want, ok := table["any"]
		if !ok {
			want, ok = table[strconv.FormatInt(u.seed, 10)]
		}
		if !ok {
			continue
		}
		pinned++
		for _, k := range sortedKeys(u.counts) {
			if w, ok := want[k]; ok && w != u.counts[k] {
				violations = append(violations, fmt.Sprintf(
					"pinned counter %s changed on unit %d (seed %d): got %d, pinned %d; explain the change and re-pin pins.json",
					k, u.unit, u.seed, u.counts[k], w))
			}
		}
	}
	if pinned == 0 {
		notes = append(notes, fmt.Sprintf("no unit of seed %d is pinned (pins.json covers seeds 0-31)", p.rc.seed))
	} else {
		notes = append(notes, fmt.Sprintf("%d units checked against pinned counters", pinned))
	}
	return violations, notes
}

// printPins measures the pins for benchmark seeds [0, n) and prints them
// as pins.json.
func printPins(n int) error {
	t := pinTable{"sim-agree-n64": {}, "sim-log-c16": {}}
	for seed := 0; seed < min(n, 4); seed++ {
		p, err := runSimAgree(runConfig{workload: "sim-agree-n64", seed: int64(seed), traced: true, minUnits: 1})
		if err != nil {
			return err
		}
		got := p.unitPins[0].counts
		if prev, ok := t["sim-agree-n64"]["any"]; ok {
			for k, v := range prev {
				if got[k] != v {
					return fmt.Errorf("sim-agree-n64 %s differs between seeds: %d vs %d", k, got[k], v)
				}
			}
		}
		t["sim-agree-n64"]["any"] = got
	}
	for seed := 0; seed < n; seed++ {
		p, err := runSimLog(runConfig{workload: "sim-log-c16", seed: int64(seed), traced: true, minUnits: 2})
		if err != nil {
			return err
		}
		// The counts are pinned even for a unit that fails its battery:
		// they are as deterministic as the failure.
		for _, v := range p.violations {
			fmt.Fprintf(os.Stderr, "sim-log-c16 seed %d: %s\n", seed, v)
		}
		for _, u := range p.unitPins {
			t["sim-log-c16"][strconv.FormatInt(u.seed, 10)] = u.counts
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}
