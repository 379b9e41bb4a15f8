package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/wire"
)

// Phase shares of -seconds. The repro pass is fixed work and runs on
// top of them, as does the ladder of a traced run.
const (
	readsShare  = 0.4
	writesShare = 0.6
	ladderShare = 0.3
	// ladderSteps is how many ladder steps the ladder share is sized
	// for; the ladder runs until two steps in a row fail.
	ladderSteps = 6
)

// genLagLimitMs: a run whose dispatcher was this late at p99 — twenty
// gaps between nominal-rate reads — did not offer the scheduled load
// and is marked invalid. Lateness below it is still inside every
// latency, which is timed from the due time. On a 2-core VM whose host
// is busy the dispatcher runs 10-15 ms late at p99 while keeping up.
const genLagLimitMs = 50.0

var errInterrupted = errors.New("run interrupted")

// defaultSeed is the seed whose figure hash baseline.json records.
const defaultSeed = 1

//go:embed baseline.json
var baselineJSON []byte

type baseline struct {
	FiguresSHA256 string `json:"repro_figures_sha256_seed1"`
}

// run executes one benchmark run and tears down everything it started
// before returning, on every path.
func run(ctx context.Context, cfg config, log io.Writer) (*report, error) {
	fmt.Fprintf(log, "perfbench: workload=%s seed=%d seconds=%g trace=%v %s\n",
		cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace, fingerprint())
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	traced := func(i int) bool { return tr != nil && i%2 == 0 }
	rep := &report{}
	clientReg := obs.NewRegistry()
	var checks []error
	check := func(what string, err error) {
		if err != nil {
			checks = append(checks, fmt.Errorf("%s: %w", what, err))
		}
	}

	// repro-sweep first, in a fresh process as one poirepro invocation
	// runs; its heap is returned before the servers start.
	pass, err := runReproPass(ctx, cfg.seed, tr)
	if ctx.Err() != nil {
		return nil, errInterrupted
	}
	if err != nil {
		return nil, fmt.Errorf("repro pass: %w", err)
	}
	fmt.Fprintf(log, "repro-sweep: %.2fs figures sha256 %s\n", pass.total.Seconds(), pass.figHash)
	check("repro-sweep", checkRepro(cfg.seed, pass))
	runtime.GC()
	debug.FreeOSMemory()

	// Set-up: city build, server start and warm-up, several times; the
	// last stack serves the measured phases.
	var st *stack
	var rc *readClients
	var wc *writeClients
	var setups []float64
	closeStack := func() {
		if st == nil {
			return
		}
		rc.transport.CloseIdleConnections()
		wc.transport.CloseIdleConnections()
		if err := st.Close(); err != nil {
			checks = append(checks, fmt.Errorf("teardown: %w", err))
		}
		st = nil
	}
	defer closeStack()
	for r := 0; r < setupRounds; r++ {
		closeStack()
		start := time.Now()
		s, err := startStack(ctx, cfg.tmpRoot, tr)
		if err != nil {
			return nil, err
		}
		st, rep.addrs = s, append(rep.addrs, s.addrs...)
		fmt.Fprintf(log, "listening %s\n", strings.Join(s.addrs, " "))
		rc, wc = newReadClients(st, tr, clientReg), newWriteClients(st, tr, clientReg)
		if err := warmReads(ctx, rc, newReadGen(cfg.seed, st.city.Bounds, cfg.workload.hot)); err != nil {
			return nil, err
		}
		if err := warmWrites(ctx, wc, writeInputsFor(cfg.seed, st, cfg.workload.hot, 0)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Fprintf(log, "set-up rounds %.3v s\n", setups)

	// Inputs, drawn before any timing starts.
	S := time.Duration(cfg.seconds * float64(time.Second))
	gen := newReadGen(cfg.seed, st.city.Bounds, cfg.workload.hot)
	nominalIn := gen.inputs(gspRate, time.Duration(readsShare*float64(S)))
	writeIn := writeInputsFor(cfg.seed, st, cfg.workload.hot, time.Duration(writesShare*float64(S)))

	// gsp-read at the nominal rate.
	cacheBefore, sfBefore, encBefore := shardCounters(st)
	gwBefore := st.gwReg.Snapshot().Counters
	nominal := runReads(ctx, rc, nominalIn, tr, traced)
	if ctx.Err() != nil {
		return nil, errInterrupted
	}
	freq, batch := nominal.byOp(opFreq), nominal.byOp(opBatch)
	logPhase(log, "gsp-read", nominal, []string{"freq", "batch"})

	// lbs-ingest.
	writes := runWrites(ctx, st, wc, writeIn, tr, traced)
	if ctx.Err() != nil {
		return nil, errInterrupted
	}
	logPhase(log, "lbs-ingest", writes.phaseResult, []string{"ingest", "release", "releases_read"})
	fmt.Fprintf(log, "  ticks=%d events accepted=%d rejected=%d deduped=%d evicted_users=%d window_peak=%d\n",
		len(writes.ticks), writes.store.Accepted, writes.store.Rejected, writes.store.Deduped, writes.store.UsersEvicted, writes.peakEvents)
	check("lbs-ingest", writes.check)
	ingest, release := writes.byOp(opIngest), writes.byOp(opRelease)

	// The peak resident set of the fixed work: the repro pass and the
	// serving phases. The ladder below fills the caches with as many
	// fresh keys as it gets through, so it would make the peak depend
	// on how far it climbed.
	rss := peakRSSMB()
	fmt.Fprintf(log, "rss peak %.1f MiB\n", rss)

	// The rate ladder, on traced runs only: its sustained rate does not
	// repeat within a tenth from run to run, so it is a per-layer metric
	// and the untraced runs skip it.
	var ladderRuns []phaseResult
	var steps []ladderStep
	checked := []*readInputs{nominalIn}
	if tr != nil {
		stepDur := time.Duration(ladderShare * float64(S) / ladderSteps)
		for k, m := range ladder {
			in := gen.inputs(gspRate*m, stepDur)
			res := runReads(ctx, rc, in, tr, traced)
			if ctx.Err() != nil {
				return nil, errInterrupted
			}
			ladderRuns = append(ladderRuns, res)
			checked = append(checked, in)
			f, b := res.byOp(opFreq), res.byOp(opBatch)
			step := ladderStep{
				rate: gspRate * m,
				load: max(f.pct(0.99)/freqLimitMs, b.pct(0.99)/batchLimitMs),
				grew: backlogGrew(res),
			}
			step.pass = f.failed+b.failed == 0 && step.load <= 1 && !step.grew
			steps = append(steps, step)
			fmt.Fprintf(log, "  ladder step %d: %.0f/s sent=%d ok=%d failed=%d freq_p99=%.2fms batch_p99=%.2fms backlog_grew=%v pass=%v\n",
				k, step.rate, f.sent+b.sent, f.ok+b.ok, f.failed+b.failed, f.pct(0.99), b.pct(0.99), step.grew, step.pass)
			if n := len(steps); n >= 2 && !steps[n-1].pass && !steps[n-2].pass {
				break
			}
		}
	}
	cacheAfter, sfAfter, encAfter := shardCounters(st)
	gwAfter := st.gwReg.Snapshot().Counters
	check("gsp-read", checkReads(st, checked...))
	closeStack()

	// Generator validity over the nominal-rate phases.
	lag := quantile(append(durMs(nominal.lags), durMs(writes.lags)...), 0.99)
	if lag > genLagLimitMs {
		check("generator", fmt.Errorf("dispatch lag p99 %.2fms over %.0fms: the load was not offered on schedule", lag, genLagLimitMs))
	}

	// Totals: every request, ladder step, tick and figure driver.
	all := []phaseResult{nominal, writes.phaseResult}
	all = append(all, ladderRuns...)
	sent, failed := 0, 0
	for _, p := range all {
		for _, r := range p.results {
			sent++
			if r.err != nil {
				failed++
			}
		}
	}
	attempted := sent + len(writes.ticks) + len(reproFigures)
	var ss spanStats
	if tr != nil {
		if ss = tr.fold(); !ss.reqOK {
			check("trace", errors.New("a child span carries another request id than its parent"))
		}
		if !ss.rpcOK {
			check("trace", errors.New("a shard RPC span is not the child of a gateway span"))
		}
		if cfg.spansPath != "" {
			if err := tr.writeSpans(cfg.spansPath); err != nil {
				return nil, err
			}
			fmt.Fprintf(log, "spans written to %s\n", cfg.spansPath)
		}
	}
	for _, err := range checks {
		fmt.Fprintln(log, "CHECK FAILED:", err)
	}
	rep.out = output{Correct: len(checks) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { rep.out.Metrics[name] = metric{Value: v, Unit: unit} }

	if tr == nil {
		put("freq_p50_ms", freq.pct(0.5), "ms")
		put("batch_p50_ms", batch.pct(0.5), "ms")
		put("ingest_p50_ms", ingest.pct(0.5), "ms")
		put("release_p50_ms", release.pct(0.5), "ms")
		put("tick_p50_ms", median(durMs(writes.ticks)), "ms")
		put("repro_s", pass.total.Seconds(), "s")
		put("setup_s", median(setups), "s")
		put("rss_peak_mb", rss, "MiB")
		return rep, nil
	}

	// Per-layer metrics: the p99s, which do not repeat within a tenth
	// at this run length, then the spans and the layers' own counters.
	put("freq_p99_ms", freq.pct(0.99), "ms")
	put("batch_p99_ms", batch.pct(0.99), "ms")
	put("ingest_p99_ms", ingest.pct(0.99), "ms")
	put("release_p99_ms", release.pct(0.99), "ms")
	put("sustained_rps", sustainedRate(steps), "1/s")
	gwDurs := append(append([]float64(nil), ss.durs["wire.gateway.freq"]...), ss.durs["wire.gateway.batch"]...)
	gsDurs := append(append([]float64(nil), ss.durs["wire.gsp.freq"]...), ss.durs["wire.gsp.batch"]...)
	put("wire.gateway.serve_p50_ms", median(gwDurs), "ms")
	put("wire.gateway.serve_p99_ms", quantile(gwDurs, 0.99), "ms")
	put("wire.gateway.self_p50_ms", median(ss.gwSelf), "ms")
	put("wire.gateway.shard_rpcs_per_req", ratio(float64(ss.gwRPCs), float64(ss.gwRequests)), "count")
	put("wire.gateway.shard_rpc_p50_ms", median(ss.durs[spanShardRPC]), "ms")
	put("wire.gateway.shard_rpc_p99_ms", quantile(ss.durs[spanShardRPC], 0.99), "ms")
	put("wire.gateway.hedges", float64(gwAfter[wire.MetricClusterReplicaHedges]-gwBefore[wire.MetricClusterReplicaHedges]), "count")
	put("wire.gateway.failovers", float64(gwAfter[wire.MetricClusterReplicaFailovers]-gwBefore[wire.MetricClusterReplicaFailovers]), "count")
	put("wire.gsp.serve_p50_ms", median(gsDurs), "ms")
	put("wire.gsp.serve_p99_ms", quantile(gsDurs, 0.99), "ms")
	put("wire.gsp.enc_hit_ratio", ratio(float64(encAfter.Hits-encBefore.Hits), float64(encAfter.Hits-encBefore.Hits+encAfter.Misses-encBefore.Misses)), "ratio")
	hits, misses := cacheAfter.Hits-cacheBefore.Hits, cacheAfter.Misses-cacheBefore.Misses
	put("gsp.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)), "ratio")
	put("gsp.computes", float64(sfAfter.Leader-sfBefore.Leader), "count")
	put("gsp.sf_joined", float64(sfAfter.Hits-sfBefore.Hits), "count")
	put("index.count_types_calls", float64(tr.countTypes.n.Load()), "count")
	put("index.count_types_p50_us", tr.countTypes.quantile(0.5)/1e3, "us")
	put("index.within_calls", float64(tr.withinCalls.Load()), "count")
	put("wire.lbs.ingest_serve_p50_ms", median(ss.durs["wire.lbs.ingest"]), "ms")
	put("wire.lbs.release_serve_p50_ms", median(ss.durs["wire.lbs.release"]), "ms")
	put("wire.lbs.release_serve_p99_ms", quantile(ss.durs["wire.lbs.release"], 0.99), "ms")
	put("wire.lbs.releases_read_p50_ms", median(ss.durs["wire.lbs.releases_read"]), "ms")
	put("stream.accepted", float64(writes.store.Accepted), "count")
	put("stream.rejected", float64(writes.store.Rejected), "count")
	put("stream.deduped", float64(writes.store.Deduped), "count")
	put("stream.users_evicted", float64(writes.store.UsersEvicted), "count")
	put("stream.window_events_peak", float64(writes.peakEvents), "count")
	put("stream.tick_p99_ms", quantile(durMs(writes.ticks), 0.99), "ms")
	put("stream.tick_users", median(writes.tickUsers), "count")
	put("budget.spends", float64(writes.spends), "count")
	put("budget.denials", float64(writes.denials), "count")
	cc := clientReg.Snapshot().Counters
	put("wire.client.attempts", float64(cc[wire.MetricClientAttempts]), "count")
	put("wire.client.retries", float64(cc[wire.MetricClientRetries]), "count")
	for _, id := range reproFigures {
		put("experiments.fig"+id+"_s", pass.figures[id].Seconds(), "s")
	}
	put("citygen.generate_s", pass.cities.Seconds(), "s")
	put("bench.sent", float64(sent), "count")
	put("bench.ok", float64(sent-failed), "count")
	put("bench.failed", float64(failed), "count")
	put("bench.failed_frac", ratio(float64(failed), float64(attempted)), "ratio")
	put("bench.gen_lag_p99_ms", lag, "ms")
	put("bench.trace_overhead_frac", traceOverhead(traced, nominal, writes.phaseResult), "ratio")
	return rep, nil
}

// shardCounters sums the shards' freq-cache, singleflight and
// encoded-response counters.
func shardCounters(st *stack) (gsp.CacheMetrics, gsp.SingleflightMetrics, wire.EncCacheMetrics) {
	var c gsp.CacheMetrics
	var sf gsp.SingleflightMetrics
	var enc wire.EncCacheMetrics
	for i, svc := range st.shardSvcs {
		m, s, e := svc.CacheMetrics(), svc.SingleflightMetrics(), st.shards[i].EncodedCacheMetrics()
		c.Hits += m.Hits
		c.Misses += m.Misses
		sf.Leader += s.Leader
		sf.Hits += s.Hits
		enc.Hits += e.Hits
		enc.Misses += e.Misses
	}
	return c, sf, enc
}

// ladderStep is one measured ladder rate. load is the worse of the two
// p99s as a share of its limit.
type ladderStep struct {
	rate       float64
	load       float64
	grew, pass bool
}

// sustainedRate is the highest passing step's rate, interpolated toward
// the step above it by where the worse p99 reaches its limit; a single
// failed step below a passing one is a transient and ignored. The
// ladder ends after two failures in a row.
func sustainedRate(steps []ladderStep) float64 {
	k := -1
	for i, s := range steps {
		if s.pass {
			k = i
		}
	}
	switch {
	case k < 0:
		return 0
	case k == len(steps)-1:
		return steps[k].rate
	}
	lo, hi := steps[k], steps[k+1]
	if hi.load <= lo.load || hi.load <= 1 {
		return lo.rate
	}
	return lo.rate + (hi.rate-lo.rate)*(1-lo.load)/(hi.load-lo.load)
}

// backlogGrew reports whether requests waited longer at the end of a
// step than at its start: the offered rate exceeded what was served.
func backlogGrew(p phaseResult) bool {
	n := len(p.results)
	if n < 30 {
		return false
	}
	first, last := make([]float64, 0, n/3), make([]float64, 0, n/3)
	for i, r := range p.results {
		switch {
		case i < n/3:
			first = append(first, ms(r.latency))
		case i >= n-n/3:
			last = append(last, ms(r.latency))
		}
	}
	return median(last) > 2*median(first)+2
}

// checkRepro requires the default seed's pass to reproduce the figure
// values recorded in baseline.json, traced or not.
func checkRepro(seed uint64, pass reproPass) error {
	if seed != defaultSeed {
		return nil
	}
	var b baseline
	if err := json.Unmarshal(baselineJSON, &b); err != nil {
		return fmt.Errorf("baseline.json: %w", err)
	}
	if pass.figHash != b.FiguresSHA256 {
		return fmt.Errorf("figures hash %s, baseline.json records %s", pass.figHash, b.FiguresSHA256)
	}
	return nil
}

// traceOverhead compares the traced half of the nominal-rate requests
// with the untraced half of the same run: median latency ratio minus 1.
func traceOverhead(traced func(int) bool, phases ...phaseResult) float64 {
	var on, off []float64
	for _, p := range phases {
		for i, r := range p.results {
			if r.err != nil {
				continue
			}
			if traced(i) {
				on = append(on, ms(r.latency))
			} else {
				off = append(off, ms(r.latency))
			}
		}
	}
	return ratio(median(on), median(off)) - 1
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// logPhase prints sent/ok/failed and latency percentiles per operation.
func logPhase(log io.Writer, phase string, p phaseResult, ops []string) {
	fmt.Fprintf(log, "%s: wall %.2fs gen_lag_p99=%.3fms\n", phase, p.wall.Seconds(), quantile(durMs(p.lags), 0.99))
	for op, name := range ops {
		s := p.byOp(op)
		fmt.Fprintf(log, "  %-14s sent=%d ok=%d failed=%d p50=%.3fms p99=%.3fms\n", name, s.sent, s.ok, s.failed, s.pct(0.5), s.pct(0.99))
	}
}
