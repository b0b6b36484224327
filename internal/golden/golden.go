// Package golden compares test output with committed golden files.
package golden

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// Check compares got with the file at path, reporting the first differing
// line and the whole of got on a mismatch.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	var g, w string
	if i < len(gl) {
		g = gl[i]
	}
	if i < len(wl) {
		w = wl[i]
	}
	t.Fatalf("%s: first difference at line %d:\n got: %q\nwant: %q\n--- got ---\n%s", path, i+1, g, w, got)
}
