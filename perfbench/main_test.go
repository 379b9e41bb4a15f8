package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunLeavesNothingBehind runs a tiny pass of each workload in this
// process, traced and untraced, and then requires that every listener
// it bound refuses connections, the goroutine count is back to where
// it started, and its temp dirs are gone.
func TestRunLeavesNothingBehind(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			tmp := t.TempDir()
			var log strings.Builder
			rep, err := run(context.Background(), config{workload: w, seed: 3, seconds: 1, trace: w.hot, tmpRoot: tmp}, &log)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			if !rep.out.Correct {
				t.Fatalf("the run's output checks failed:\n%s", log.String())
			}
			requireNothingLeft(t, rep.addrs, tmp)
			requireGoroutines(t, before)
		})
	}
}

// TestCommand builds the command and runs it as a benchmark run does:
// it must finish on its own and print every metric named
// in BENCHMARK.json, and on SIGINT it must stop, exit non-zero without a
// result line and leave no listener or temp dir behind.
func TestCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark binary")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	spec := readSpec(t)

	for _, trace := range []string{"0", "1"} {
		t.Run("trace"+trace, func(t *testing.T) {
			tmp := t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, "--workload", "cold", "--seed", "2", "--seconds", "1", "--trace", trace, "--tmp", tmp)
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res output
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result: %v", err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Fatalf("result %+v", res)
			}
			want := spec.EndToEnd
			if trace == "1" {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %s: printed %+v, want unit %s", m.Name, got, m.Unit)
				}
			}
			requireNothingLeft(t, nil, tmp)
		})
	}

	t.Run("sigint", func(t *testing.T) {
		tmp := t.TempDir()
		cmd := exec.Command(bin, "--workload", "hot", "--seed", "2", "--seconds", "60", "--tmp", tmp)
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		var stdout strings.Builder
		cmd.Stdout = &stdout
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var addrs []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening "); ok {
				addrs = append(addrs, strings.Fields(a)...)
			}
			if strings.HasPrefix(sc.Text(), "set-up rounds") {
				break
			}
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		go io.Copy(io.Discard, stderr)
		done := make(chan error, 1)
		go func() { done <- cmd.Wait() }()
		select {
		case err := <-done:
			var ee *exec.ExitError
			if !errors.As(err, &ee) || ee.ExitCode() <= 0 {
				t.Fatalf("exit after SIGINT: %v, want a non-zero status", err)
			}
		case <-time.After(30 * time.Second):
			cmd.Process.Kill()
			t.Fatal("no exit within 30s of SIGINT")
		}
		if stdout.Len() != 0 {
			t.Errorf("printed %q after SIGINT", stdout.String())
		}
		if len(addrs) == 0 {
			t.Fatal("no listener addresses logged before the signal")
		}
		requireNothingLeft(t, addrs, tmp)
	})
}

// requireNothingLeft fails unless every addr refuses connections and
// dir is empty.
func requireNothingLeft(t *testing.T, addrs []string, dir string) {
	t.Helper()
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp", a, time.Second); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", a)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind in the temp root: %s", e.Name())
	}
}

// requireGoroutines waits briefly for connection goroutines to wind
// down, then fails if more goroutines run than before the run.
func requireGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the run, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}
