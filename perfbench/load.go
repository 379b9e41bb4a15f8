package main

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"
)

// arrival is one scheduled operation of an open-loop phase: when it is
// due (offset from the phase start) and which operation it is.
type arrival struct {
	due time.Duration
	op  int
}

// poissonSchedule draws arrivals at rate per second for d, each picking
// an operation by weight; the same rng state gives the same schedule.
func poissonSchedule(rng *rand.Rand, rate float64, d time.Duration, weights []float64) []arrival {
	var total float64
	for _, w := range weights {
		total += w
	}
	var out []arrival
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		x := rng.Float64() * total
		op := 0
		for op < len(weights)-1 && x >= weights[op] {
			x -= weights[op]
			op++
		}
		out = append(out, arrival{due: time.Duration(t * float64(time.Second)), op: op})
	}
}

// result is the outcome of one operation.
type result struct {
	op      int
	latency time.Duration // completion minus due time
	err     error
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	results []result
	lags    []time.Duration // dispatch time minus due time, per arrival
	wall    time.Duration   // phase start to last completion
}

// workers is the generator's concurrency: one request worker per core,
// which is also the connection cap per target.
func workers() int { return runtime.NumCPU() }

// runOpenLoop dispatches sched on time to the request workers; do runs
// operation i. Each latency is measured from the arrival's due time, so
// time spent queued behind a slow operation counts. Dispatch stops when
// ctx ends; operations already dispatched finish first.
func runOpenLoop(ctx context.Context, sched []arrival, do func(ctx context.Context, i int) error) phaseResult {
	res := phaseResult{
		results: make([]result, len(sched)),
		lags:    make([]time.Duration, 0, len(sched)),
	}
	queue := make(chan int, len(sched)) // never blocks the dispatcher
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last time.Time
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				err := do(ctx, i)
				done := time.Now()
				res.results[i] = result{op: sched[i].op, latency: done.Sub(start.Add(sched[i].due)), err: err}
				mu.Lock()
				if done.After(last) {
					last = done
				}
				mu.Unlock()
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
	n := 0
dispatch:
	for i, a := range sched {
		if wait := time.Until(start.Add(a.due)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break dispatch
			case <-timer.C:
			}
		}
		res.lags = append(res.lags, time.Since(start.Add(a.due)))
		queue <- i
		n++
	}
	close(queue)
	wg.Wait()
	timer.Stop()
	res.results = res.results[:n]
	res.wall = last.Sub(start)
	return res
}

// opStats summarizes the results of one operation kind.
type opStats struct {
	sent, ok, failed int
	lat              []float64 // ms, failures excluded
}

func (p phaseResult) byOp(op int) opStats {
	var s opStats
	for _, r := range p.results {
		if r.op != op {
			continue
		}
		s.sent++
		if r.err != nil {
			s.failed++
			continue
		}
		s.ok++
		s.lat = append(s.lat, ms(r.latency))
	}
	return s
}

// failedLatencyMs is the latency a failed operation counts as: the
// clients' per-attempt timeout, above every latency limit.
const failedLatencyMs = 5000.0

// pct is the q-quantile of the latencies in ms, counting every failed
// operation as slower than any success: a failure misses any limit.
func (s opStats) pct(q float64) float64 {
	if s.sent == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(s.sent))) - 1
	if rank >= len(s.lat) {
		return failedLatencyMs
	}
	sort.Float64s(s.lat)
	return s.lat[max(rank, 0)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the q-quantile of xs (nearest rank); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
