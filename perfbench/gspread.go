package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"slices"
	"sync"
	"time"

	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/poi"
	"poiagg/internal/wire"
)

// gsp-read: open-loop reads through the gateway. GET /v1/freq reads
// exercise the gateway hop and, on the hot workload, the shard caches;
// POST /v1/freq/batch of fresh locations always misses (cache keys are
// exact floats) and loads the index and the shard fan-out.
const (
	opFreq = iota
	opBatch
)

const (
	readRadius = 1000 // m, one of the paper's query ranges
	batchSize  = 16
	hotKeys    = 512 // well inside the 4,096-entry encoded cache per shard
	hotZipfS   = 1.1

	// gspRate is the nominal rate; the ladder multiplies it.
	gspRate      = 400.0
	freqWeight   = 0.7
	batchWeight  = 0.3
	freqLimitMs  = 50.0 // p99 limits on the ladder
	batchLimitMs = 100.0
	sampleEvery  = 8 // every 8th read is checked against the reference
)

// ladder is the fixed rate ladder, as multiples of gspRate: coarse up
// to well below the knee, then 200-rps steps through it.
var ladder = []float64{1, 2, 3, 3.5, 4, 4.5, 5, 5.5, 6, 6.5, 7, 7.5, 8, 9, 10, 12, 14}

// readInputs are a phase's generated requests.
type readInputs struct {
	sched   []arrival
	locs    [][]geo.Point // per arrival: one location (freq) or batchSize
	sampled []sampledRead // filled while running, checked afterwards
	mu      sync.Mutex
}

type sampledRead struct {
	locs  []geo.Point
	freqs []poi.FreqVector
}

// readGen draws read inputs: fresh uniform locations, and on the hot
// workload freq keys from a zipf-hot set.
type readGen struct {
	rng    *rand.Rand
	bounds geo.Rect
	hot    []geo.Point
	zipf   *rand.Zipf
}

func newReadGen(seed uint64, bounds geo.Rect, hot bool) *readGen {
	g := &readGen{rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)), bounds: bounds}
	if hot {
		for i := 0; i < hotKeys; i++ {
			g.hot = append(g.hot, g.uniform())
		}
		g.zipf = rand.NewZipf(g.rng, hotZipfS, 1, hotKeys-1)
	}
	return g
}

func (g *readGen) uniform() geo.Point {
	b := g.bounds
	return geo.Point{X: b.MinX + g.rng.Float64()*(b.MaxX-b.MinX), Y: b.MinY + g.rng.Float64()*(b.MaxY-b.MinY)}
}

func (g *readGen) freqLoc() geo.Point {
	if g.hot != nil {
		return g.hot[g.zipf.Uint64()]
	}
	return g.uniform()
}

func (g *readGen) inputs(rate float64, d time.Duration) *readInputs {
	in := &readInputs{sched: poissonSchedule(g.rng, rate, d, []float64{freqWeight, batchWeight})}
	in.locs = make([][]geo.Point, len(in.sched))
	for i, a := range in.sched {
		if a.op == opFreq {
			in.locs[i] = []geo.Point{g.freqLoc()}
			continue
		}
		locs := make([]geo.Point, batchSize)
		for j := range locs {
			locs[j] = g.uniform()
		}
		in.locs[i] = locs
	}
	return in
}

// readClients signs as each load principal in turn over one transport
// capped at workers() connections to the gateway.
type readClients struct {
	clients   []*wire.GSPClient
	transport *http.Transport
}

func newReadClients(st *stack, tr *tracer, reg *obs.Registry) *readClients {
	t := clientTransport()
	hc := &http.Client{Transport: tr.transport(spanClientRPC, t)}
	rc := &readClients{transport: t}
	for _, p := range loadPrincipals {
		rc.clients = append(rc.clients, wire.NewGSPClient(st.gspURL, hc,
			wire.WithRetries(2),
			wire.WithRequestTimeout(5*time.Second),
			wire.WithClientMetrics(reg),
			wire.WithSigningKey(p, st.keys[p])))
	}
	return rc
}

func clientTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = workers()
	t.MaxIdleConnsPerHost = workers()
	return t
}

// runReads runs one read phase. Operation i is traced when traced(i).
func runReads(ctx context.Context, rc *readClients, in *readInputs, tr *tracer, traced func(int) bool) phaseResult {
	return runOpenLoop(ctx, in.sched, func(ctx context.Context, i int) error {
		c := rc.clients[i%len(rc.clients)]
		var end func()
		if traced(i) {
			ctx, end = tr.begin(ctx, "wire.client"+[]string{".freq", ".batch"}[in.sched[i].op])
			defer end()
		}
		locs := in.locs[i]
		var freqs []poi.FreqVector
		if in.sched[i].op == opFreq {
			f, err := c.Freq(ctx, locs[0], readRadius)
			if err != nil {
				return err
			}
			freqs = []poi.FreqVector{f}
		} else {
			items := make([]wire.BatchItem, len(locs))
			for j, l := range locs {
				items[j] = wire.BatchItem{X: l.X, Y: l.Y, R: readRadius}
			}
			res, err := c.FreqBatch(ctx, items)
			if err != nil {
				return err
			}
			if len(res) != len(items) {
				return fmt.Errorf("batch: %d results for %d items", len(res), len(items))
			}
			for _, r := range res {
				if r.Error != "" {
					return fmt.Errorf("batch item: %s", r.Error)
				}
				freqs = append(freqs, r.Freq)
			}
		}
		if i%sampleEvery == 0 {
			in.mu.Lock()
			in.sampled = append(in.sampled, sampledRead{locs: locs, freqs: freqs})
			in.mu.Unlock()
		}
		return nil
	})
}

// checkReads compares the sampled responses with Freq on a reference
// service: a fresh index over the same POIs, with no cache.
func checkReads(st *stack, phases ...*readInputs) error {
	c := st.city.City
	refCity, err := gsp.NewCity(c.Name, c.Bounds, c.Types, c.POIs())
	if err != nil {
		return err
	}
	ref := gsp.NewService(refCity, 0)
	n := 0
	for _, in := range phases {
		for _, s := range in.sampled {
			for j, l := range s.locs {
				if want := ref.Freq(l, readRadius); !slices.Equal(s.freqs[j], want) {
					return fmt.Errorf("freq at (%.1f, %.1f): response differs from the reference", l.X, l.Y)
				}
				n++
			}
		}
	}
	if n == 0 {
		return fmt.Errorf("no read responses sampled")
	}
	return nil
}

// warmReads sends every hot key once and a few batches, so the caches
// hold the hot set and connections are open before timing.
func warmReads(ctx context.Context, rc *readClients, g *readGen) error {
	c := rc.clients[0]
	for _, l := range g.hot {
		if _, err := c.Freq(ctx, l, readRadius); err != nil {
			return fmt.Errorf("warm-up freq: %w", err)
		}
	}
	for i := 0; i < 32; i++ {
		items := make([]wire.BatchItem, batchSize)
		for j := range items {
			l := g.uniform()
			items[j] = wire.BatchItem{X: l.X, Y: l.Y, R: readRadius}
		}
		if _, err := c.FreqBatch(ctx, items); err != nil {
			return fmt.Errorf("warm-up batch: %w", err)
		}
	}
	return nil
}
