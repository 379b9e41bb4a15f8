package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: poiagg/internal/gsp
BenchmarkFreqCacheSharded/sharded-8   2262099   530.6 ns/op   216 B/op   3 allocs/op
BenchmarkFreqCacheSharded/locked-8    1000000  1200.0 ns/op   216 B/op   3 allocs/op
PASS
ok  	poiagg/internal/gsp	3.1s
`

func TestParseBenchLine(t *testing.T) {
	res, ok := parseBenchLine("BenchmarkX/sub-8   100   12.5 ns/op   8 B/op   1 allocs/op")
	if !ok {
		t.Fatal("valid line rejected")
	}
	if res.Name != "BenchmarkX/sub" || res.Procs != 8 || res.Iterations != 100 || res.NsPerOp != 12.5 ||
		res.BytesPerOp != 8 || res.AllocsPerOp != 1 {
		t.Fatalf("parsed %+v", res)
	}
	// GOMAXPROCS=1 runs print no suffix.
	res, ok = parseBenchLine("BenchmarkX/sub   100   12.5 ns/op")
	if !ok || res.Name != "BenchmarkX/sub" || res.Procs != 1 {
		t.Fatalf("unsuffixed line parsed %+v (ok=%v)", res, ok)
	}
	for _, bad := range []string{"PASS", "ok  \tpkg\t1s", "goos: linux", "BenchmarkX nan ns/op"} {
		if _, ok := parseBenchLine(bad); ok {
			t.Errorf("accepted non-result line %q", bad)
		}
	}
}

func TestRunWritesJSON(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	err := run([]string{"-out", out}, strings.NewReader(sampleBench), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 2 || doc.Results[0].Name != "BenchmarkFreqCacheSharded/sharded" || doc.Results[0].Procs != 8 {
		t.Fatalf("results %+v", doc.Results)
	}
}

// writeBaseline writes a baseline document with the given ns/op for the
// two sample benchmarks.
func writeBaseline(t *testing.T, sharded, locked float64) string {
	t.Helper()
	doc := Document{Results: []Result{
		{Name: "BenchmarkFreqCacheSharded/sharded-8", Iterations: 1, NsPerOp: sharded},
		{Name: "BenchmarkFreqCacheSharded/locked-8", Iterations: 1, NsPerOp: locked},
	}}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPrevWithinTolerance(t *testing.T) {
	// Baseline slightly slower than the run: no regression.
	base := writeBaseline(t, 600, 1300)
	var tee strings.Builder
	if err := run([]string{"-prev", base}, strings.NewReader(sampleBench), &tee); err != nil {
		t.Fatalf("unexpected failure: %v\n%s", err, tee.String())
	}
	if !strings.Contains(tee.String(), "within 20%") {
		t.Errorf("missing summary line in:\n%s", tee.String())
	}
}

func TestRunPrevDetectsRegression(t *testing.T) {
	// Baseline far faster than the run: the 20% gate must trip.
	base := writeBaseline(t, 100, 100)
	var tee strings.Builder
	err := run([]string{"-prev", base}, strings.NewReader(sampleBench), &tee)
	if err == nil {
		t.Fatalf("regression not detected:\n%s", tee.String())
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Errorf("error %q does not mention regression", err)
	}
	if !strings.Contains(tee.String(), "REGRESSED") {
		t.Errorf("missing REGRESSED marker in:\n%s", tee.String())
	}
}

func TestRunPrevCustomTolerance(t *testing.T) {
	// +112% vs baseline passes a 200% gate.
	base := writeBaseline(t, 250, 600)
	if err := run([]string{"-prev", base, "-max-regress", "2.0"},
		strings.NewReader(sampleBench), io.Discard); err != nil {
		t.Fatalf("custom tolerance not honored: %v", err)
	}
}

func TestRunPrevDoesNotClobberDefaultOut(t *testing.T) {
	dir := t.TempDir()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(cwd)
	base := writeBaseline(t, 600, 1300)
	if err := run([]string{"-prev", base}, strings.NewReader(sampleBench), io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat("BENCH.json"); !os.IsNotExist(err) {
		t.Error("diff mode wrote BENCH.json without -out")
	}
}

func TestRunPrevMismatchedNames(t *testing.T) {
	doc := Document{Results: []Result{{Name: "BenchmarkOther", Iterations: 1, NsPerOp: 5}}}
	raw, _ := json.Marshal(doc)
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-prev", path}, strings.NewReader(sampleBench), io.Discard)
	if err == nil || !strings.Contains(err.Error(), "no benchmarks shared") {
		t.Fatalf("err = %v", err)
	}
}

// TestRunPrevStripsProcsSuffix diffs a GOMAXPROCS=2 run against a
// baseline recorded at GOMAXPROCS=1 (no suffix): the names must match.
func TestRunPrevStripsProcsSuffix(t *testing.T) {
	doc := Document{Results: []Result{{Name: "BenchmarkFreqCacheSharded/sharded", Iterations: 1, NsPerOp: 500}}}
	raw, _ := json.Marshal(doc)
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	run2 := "BenchmarkFreqCacheSharded/sharded-2   1000   520.0 ns/op\n"
	var tee strings.Builder
	if err := run([]string{"-prev", path}, strings.NewReader(run2), &tee); err != nil {
		t.Fatalf("err = %v\n%s", err, tee.String())
	}
	if !strings.Contains(tee.String(), "1 benchmark(s) within") {
		t.Errorf("suffixed run did not match the unsuffixed baseline:\n%s", tee.String())
	}
}

func TestRunNoInput(t *testing.T) {
	if err := run(nil, strings.NewReader("PASS\n"), io.Discard); err == nil {
		t.Error("empty input accepted")
	}
}
