// Command perfbench is the repository's benchmark. It starts the serving
// side in this process — gspgw in front of two gspd shards, and an lbsd
// with streaming, auditing and a persistent budget ledger, each server
// on its own 127.0.0.1:0 listener with auth on and a synchronous
// per-request log file — and drives it open loop from the same process
// with at most one request worker and one connection per core and
// target. One run goes through three phases:
//
//   - gsp-read: signed GET /v1/freq and POST /v1/freq/batch through the
//     gateway at a nominal rate, then up a fixed rate ladder;
//   - lbs-ingest: signed NDJSON ingest, audited releases and stream
//     release reads, with the releaser ticked on a fixed cadence;
//   - repro-sweep: a pass over a pinned list of figure drivers on a fresh
//     quick-scale experiments.Env, with no wire.
//
// The workload (-workload) sets the working set against the program's
// caches: hot reads and check-ins reuse a small key set, cold ones never
// repeat. Every output is checked outside the timed windows. With
// -trace 1 the run records spans around each layer's calls, prints
// per-layer metrics instead of the end-to-end ones, and writes the spans
// to .bench_build/spans/<workload>-seed<n>.jsonl.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload hot --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. A failed check, a signal or the
// benchmark's own deadline ends the run with a non-zero exit status,
// after every server, goroutine, file and temp dir it made is gone.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// workload is one setting of the generated inputs.
type workload struct {
	name string
	// hot: freq reads repeat a zipf-hot key set and check-ins a small
	// location pool, so the freq and encoded-response caches serve them;
	// otherwise every read and check-in location is fresh.
	hot bool
}

var workloads = []workload{{name: "hot", hot: true}, {name: "cold", hot: false}}

// Deadlines: a run must end within 180 s. A run that has not
// finished by runDeadline is cancelled and cleans up; one whose cleanup
// overruns exitGrace is ended by the watchdog.
const (
	runDeadline = 160 * time.Second
	exitGrace   = 10 * time.Second
)

// setupRounds is how often a run builds the city, starts the servers
// and warms them; setup_s is the median, the last round serves the load.
const setupRounds = 7

type config struct {
	workload workload
	seed     uint64
	seconds  float64
	trace    bool
	tmpRoot  string
	// spansPath receives the traced run's spans as JSON lines; empty
	// keeps them in memory only.
	spansPath string
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hot or cold")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "time the open-loop phases measure, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and prints per-layer metrics")
	tmp := fs.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for the run's temp dirs")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, tmpRoot: *tmp}
	for _, w := range workloads {
		if w.name == *name {
			cfg.workload = w
		}
	}
	switch {
	case cfg.workload.name == "":
		return cfg, fmt.Errorf("unknown workload %q (want hot or cold)", *name)
	case *trace != 0 && *trace != 1:
		return cfg, fmt.Errorf("-trace must be 0 or 1")
	case cfg.seconds <= 0:
		return cfg, fmt.Errorf("-seconds must be positive")
	}
	return cfg, nil
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	root := cfg.tmpRoot
	runDir, err := newRunDir(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	go func() {
		<-ctx.Done()
		time.Sleep(exitGrace)
		os.RemoveAll(runDir)
		fmt.Fprintln(os.Stderr, "perfbench: cleanup overran its grace period")
		os.Exit(3)
	}()

	cfg.tmpRoot = runDir
	if cfg.trace {
		cfg.spansPath = filepath.Join(filepath.Dir(root), "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload.name, cfg.seed))
	}
	rep, err := run(ctx, cfg, os.Stderr)
	if rmErr := os.RemoveAll(runDir); err == nil {
		err = rmErr
	}
	cancel()
	stopSignals()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep.out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.out.Correct {
		os.Exit(1)
	}
}

// newRunDir makes the run's private temp dir under root.
func newRunDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("create temp root: %w", err)
	}
	return os.MkdirTemp(root, "run-")
}

// output is the result line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a finished run: the result line plus what the benchmark's
// own test inspects afterwards.
type report struct {
	out   output
	addrs []string // every listener any stack of the run bound
}

// fingerprint names the machine the numbers belong to.
func fingerprint() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d go=%s", model, runtime.NumCPU(), runtime.Version())
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
