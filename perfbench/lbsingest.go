package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/geo"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/stream"
	"poiagg/internal/wire"
)

// lbs-ingest: open-loop writes into the LBS. Signed NDJSON check-ins
// from rotating user cohorts (more users than the window store holds,
// so it evicts), audited releases (the region attack runs per release)
// and reads of the public stream releases, while the benchmark ticks
// the releaser on a fixed cadence.
const (
	opIngest = iota
	opRelease
	opReleasesRead
)

const (
	lbsRate         = 150.0
	ingestWeight    = 0.7
	releaseWeight   = 0.2
	readsWeight     = 0.1
	eventsPerIngest = 16
	cohortUsers     = 64 // users per cohort
	cohortIngests   = 32 // ingest requests before the cohort rotates
	hotEventLocs    = 512
	tickEvery       = 250 * time.Millisecond
	releasePool     = 64 // distinct release vectors
)

type writeInputs struct {
	sched    []arrival
	events   [][]stream.Event // per ingest arrival; TS is stamped at send
	releases []wire.ReleaseRequest
}

// writeInputsFor draws a phase's requests. Check-in locations come from
// a hot pool on the hot workload and are fresh otherwise.
func writeInputsFor(seed uint64, st *stack, hot bool, d time.Duration) *writeInputs {
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	g := &readGen{rng: rng, bounds: st.city.Bounds}
	var pool []geo.Point
	if hot {
		for i := 0; i < hotEventLocs; i++ {
			pool = append(pool, g.uniform())
		}
	}
	loc := func() geo.Point {
		if pool != nil {
			return pool[rng.IntN(len(pool))]
		}
		return g.uniform()
	}

	in := &writeInputs{sched: poissonSchedule(rng, lbsRate, d, []float64{ingestWeight, releaseWeight, readsWeight})}
	in.events = make([][]stream.Event, len(in.sched))
	ingests := 0
	for i, a := range in.sched {
		if a.op != opIngest {
			continue
		}
		cohort := ingests / cohortIngests
		evs := make([]stream.Event, eventsPerIngest)
		for j := range evs {
			l := loc()
			u := cohort*cohortUsers + rng.IntN(cohortUsers)
			evs[j] = stream.Event{UserID: "u" + strconv.Itoa(u), X: l.X, Y: l.Y}
		}
		in.events[i] = evs
		ingests++
	}

	// Release vectors are true aggregates at random locations, computed
	// on a cacheless service so the LBS's own cache stays cold for them.
	ref := gsp.NewService(st.city.City, 0)
	for i := 0; i < releasePool; i++ {
		in.releases = append(in.releases, wire.ReleaseRequest{
			UserID: "r" + strconv.Itoa(i),
			Freq:   ref.Freq(g.uniform(), readRadius),
			R:      readRadius,
		})
	}
	return in
}

type writeClients struct {
	clients   []*wire.LBSClient
	transport *http.Transport
}

func newWriteClients(st *stack, tr *tracer, reg *obs.Registry) *writeClients {
	t := clientTransport()
	hc := &http.Client{Transport: tr.transport(spanClientRPC, t)}
	wc := &writeClients{transport: t}
	for _, p := range loadPrincipals {
		// No retries: an at-least-once replay would blur the exact
		// accepted+rejected+deduped accounting the check relies on.
		wc.clients = append(wc.clients, wire.NewLBSClient(st.lbsURL, hc,
			wire.WithRequestTimeout(5*time.Second),
			wire.WithClientMetrics(reg),
			wire.WithSigningKey(p, st.keys[p])))
	}
	return wc
}

// writeResult is what the lbs-ingest phase measured beyond the
// per-request results.
type writeResult struct {
	phaseResult
	ticks      []time.Duration
	tickUsers  []float64
	peakEvents int
	check      error
	store      stream.Stats // deltas over the phase
	spends     uint64
	denials    uint64
}

func runWrites(ctx context.Context, st *stack, wc *writeClients, in *writeInputs, tr *tracer, traced func(int) bool) writeResult {
	var out writeResult
	storeBefore := st.store.Stats()
	ledBefore := st.ledReg.Snapshot().Counters
	ticksBefore := st.rel.Ticks()

	var peakMu sync.Mutex
	observePeak := func() {
		n := st.store.Stats().WindowEvents
		peakMu.Lock()
		out.peakEvents = max(out.peakEvents, n)
		peakMu.Unlock()
	}

	// The releaser runs on the benchmark's cadence, sharing the cores
	// with the requests, as lbsd's ticker would.
	tickCtx, stopTicks := context.WithCancel(ctx)
	var tickErr error
	var releases []stream.WindowRelease
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		t := time.NewTicker(tickEvery)
		defer t.Stop()
		for {
			select {
			case <-tickCtx.Done():
				return
			case <-t.C:
			}
			_, end := tr.begin(context.Background(), "stream.tick")
			start := time.Now()
			rel, err := st.rel.Tick(start)
			d := time.Since(start)
			end()
			if err != nil {
				tickErr = err
				return
			}
			out.ticks = append(out.ticks, d)
			out.tickUsers = append(out.tickUsers, float64(rel.Users))
			releases = append(releases, rel)
			observePeak()
		}
	}()

	out.phaseResult = runOpenLoop(ctx, in.sched, func(ctx context.Context, i int) error {
		c := wc.clients[i%len(wc.clients)]
		if traced(i) {
			var end func()
			ctx, end = tr.begin(ctx, "wire.client"+[]string{".ingest", ".release", ".releases_read"}[in.sched[i].op])
			defer end()
		}
		switch in.sched[i].op {
		case opIngest:
			now := time.Now()
			evs := in.events[i]
			for j := range evs {
				evs[j].TS = now
			}
			resp, err := c.Ingest(ctx, evs)
			if err != nil {
				return err
			}
			observePeak()
			if resp.Accepted != len(evs) {
				return fmt.Errorf("ingest: %d of %d events accepted", resp.Accepted, len(evs))
			}
		case opRelease:
			resp, err := c.Release(ctx, in.releases[i%len(in.releases)])
			if err != nil {
				return err
			}
			if !resp.Accepted || !resp.Audited {
				return fmt.Errorf("release not accepted and audited: %+v", resp)
			}
		case opReleasesRead:
			if _, err := c.StreamReleases(ctx, 8); err != nil {
				return err
			}
		}
		return nil
	})
	stopTicks()
	<-tickDone

	storeAfter := st.store.Stats()
	out.store = stream.Stats{
		Accepted:     storeAfter.Accepted - storeBefore.Accepted,
		Rejected:     storeAfter.Rejected - storeBefore.Rejected,
		Deduped:      storeAfter.Deduped - storeBefore.Deduped,
		UsersEvicted: storeAfter.UsersEvicted - storeBefore.UsersEvicted,
	}
	ledAfter := st.ledReg.Snapshot().Counters
	out.spends = ledAfter[budget.MetricSpends] - ledBefore[budget.MetricSpends]
	out.denials = ledAfter[budget.MetricDenies] - ledBefore[budget.MetricDenies]
	out.check = checkWrites(st, out, tickErr, releases, ticksBefore)
	return out
}

// checkWrites verifies the phase's accounting: every event sent is
// accounted for by the store, the window stayed within its bound, each
// tick published exactly one release of M counts, and no legitimate
// spend was denied.
func checkWrites(st *stack, out writeResult, tickErr error, releases []stream.WindowRelease, ticksBefore uint64) error {
	if tickErr != nil {
		return fmt.Errorf("tick: %w", tickErr)
	}
	sent, failed := 0, false
	for _, r := range out.results {
		if r.op == opIngest {
			sent += eventsPerIngest
			failed = failed || r.err != nil
		}
	}
	if got := int(out.store.Accepted + out.store.Rejected + out.store.Deduped); !failed && got != sent {
		return fmt.Errorf("stream store accounted %d events, %d were sent", got, sent)
	}
	cfg := st.store.Config()
	if limit := cfg.MaxUsers * cfg.MaxPerUser; out.peakEvents > limit {
		return fmt.Errorf("window held %d events, bound is %d", out.peakEvents, limit)
	}
	if got := st.rel.Ticks() - ticksBefore; got != uint64(len(releases)) {
		return fmt.Errorf("%d ticks published %d releases", len(releases), got)
	}
	m := st.city.M()
	for i, rel := range releases {
		if rel.Tick != ticksBefore+uint64(i) {
			return fmt.Errorf("tick %d released sequence number %d", ticksBefore+uint64(i), rel.Tick)
		}
		if rel.Users > 0 && len(rel.Freq) != m {
			return fmt.Errorf("tick %d: %d counts, want %d", rel.Tick, len(rel.Freq), m)
		}
	}
	if len(releases) == 0 {
		return fmt.Errorf("no tick ran")
	}
	if out.denials != 0 {
		return fmt.Errorf("budget denied %d spends", out.denials)
	}
	return nil
}

// warmWrites opens connections and touches each route once.
func warmWrites(ctx context.Context, wc *writeClients, in *writeInputs) error {
	c := wc.clients[0]
	if _, err := c.Release(ctx, in.releases[0]); err != nil {
		return fmt.Errorf("warm-up release: %w", err)
	}
	if _, err := c.StreamReleases(ctx, 1); err != nil {
		return fmt.Errorf("warm-up stream releases: %w", err)
	}
	return nil
}
