// Command lbsd serves the LBS application of the paper's architecture:
// it accepts POI-aggregate releases from users and, when pointed at the
// public GSP, audits every release with the region re-identification
// attack — letting an operator observe in real time how identifying the
// "anonymous" aggregates are.
//
// Usage:
//
//	lbsd -addr :8081 -city beijing          # audit against a local city copy
//	lbsd -addr :8081 -city beijing -no-audit
//	lbsd -addr :8081 -city beijing -budget -budget-dir /var/lib/lbsd
//
// With -budget every release charges (-release-eps, -release-delta)
// against the caller's privacy-budget ledger (principal taken from the
// X-Principal header, ?principal=, or the release's userId); exhausted
// principals get 429 until their sliding window refills. -budget-dir
// makes the ledger crash-safe (snapshot + spend log) across restarts.
//
// With -auth-keys every API request must carry an HMAC-SHA256 signature
// (X-Auth header) from a provisioned principal, and the budget charges
// ONLY the signature-verified identity — the header/query/userId
// fallback chain is disabled. Keys are given inline
// ("alice=<hexkey>,...") or via @file, one principal=hexkey per line.
//
// With -stream the daemon also ingests live check-ins (POST /v1/ingest,
// NDJSON, one event per line) into a sliding window with bounded
// memory: at most -history-users distinct users (second-chance eviction
// past it) times -stream-per-user events each. Every -stream-tick the
// window is aggregated into one differentially private frequency vector
// (GET /v1/stream/releases); with -budget each release charges
// (-stream-eps, -stream-delta) to every contributing principal. SIGTERM
// drains the window through one final release before the ledger closes,
// so in-flight check-ins are released and charged, not dropped.
//
// Endpoints: POST /v1/release, GET /v1/releases?user=, the budget admin
// pair GET /v1/budget/{principal} and POST /v1/budget/{principal}/reset
// (with -budget), POST /v1/ingest and GET /v1/stream/releases (with
// -stream), plus the operational /v1/metrics, /healthz, /readyz.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/citygen"
	"poiagg/internal/cloak"
	"poiagg/internal/defense"
	"poiagg/internal/gsp"
	"poiagg/internal/obs"
	"poiagg/internal/stream"
	"poiagg/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lbsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lbsd", flag.ContinueOnError)
	addr := fs.String("addr", ":8081", "listen address")
	cityName := fs.String("city", "beijing", "city preset the releases refer to")
	seed := fs.Uint64("seed", 1, "city generation seed (must match the GSP's)")
	noAudit := fs.Bool("no-audit", false, "disable re-identification auditing")
	historyLimit := fs.Int("history", 1000, "stored releases per user")
	historyUsers := fs.Int("history-users", wire.DefaultHistoryUsers, "max distinct users with stored history (second-chance eviction past it)")
	daemon := wire.RegisterDaemonFlags(fs)
	budgetOn := fs.Bool("budget", false, "enforce a per-principal privacy budget on releases")
	budgetEps := fs.Float64("budget-eps", 10, "lifetime epsilon budget per principal")
	budgetDelta := fs.Float64("budget-delta", 1e-3, "lifetime delta budget per principal")
	budgetWindow := fs.Duration("budget-window", 24*time.Hour, "sliding refill window (0 = lifetime budget only)")
	budgetWindowEps := fs.Float64("budget-window-eps", 1.5, "epsilon allowed inside each window")
	budgetWindowDelta := fs.Float64("budget-window-delta", 0, "delta allowed inside each window (0 = delta not windowed)")
	releaseEps := fs.Float64("release-eps", 0.5, "epsilon charged per accepted release")
	releaseDelta := fs.Float64("release-delta", 1e-6, "delta charged per accepted release")
	budgetDir := fs.String("budget-dir", "", "ledger persistence directory (empty = in-memory)")
	budgetTTL := fs.Duration("budget-idle-ttl", 0, "retire ledgers idle this long (0 disables; must be >= the window)")
	snapshotEvery := fs.Int("budget-snapshot-every", 1000, "auto-snapshot the persistent ledger every N logged spends")
	streamOn := fs.Bool("stream", false, "ingest live check-ins (POST /v1/ingest) and publish windowed DP releases")
	streamWindow := fs.Duration("stream-window", 5*time.Minute, "sliding check-in window per user")
	streamTick := fs.Duration("stream-tick", stream.DefaultInterval, "period between windowed DP releases")
	streamRadius := fs.Float64("stream-radius", stream.DefaultRadius, "POI query radius in meters for window aggregates")
	streamPerUser := fs.Int("stream-per-user", 64, "max events kept per user window (oldest dropped past it)")
	streamHistory := fs.Int("stream-history", stream.DefaultHistory, "windowed releases kept for GET /v1/stream/releases")
	streamSeed := fs.Uint64("stream-seed", 1, "root seed for windowed release noise")
	streamPop := fs.Int("stream-pop", 2000, "synthetic population size behind the windowed DP mechanism")
	streamEps := fs.Float64("stream-eps", 0.5, "epsilon charged per principal per windowed release (with -budget)")
	streamDelta := fs.Float64("stream-delta", 1e-6, "delta charged per principal per windowed release (with -budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var p citygen.Params
	switch *cityName {
	case "beijing":
		p = citygen.Beijing(*seed)
	case "nyc":
		p = citygen.NewYork(*seed)
	default:
		return fmt.Errorf("unknown city %q", *cityName)
	}
	city, err := citygen.Generate(p)
	if err != nil {
		return err
	}

	logger := log.New(os.Stderr, "lbsd ", log.LstdFlags)
	reg := obs.NewRegistry()
	shared, err := daemon.Options(logger, reg)
	if err != nil {
		return err
	}
	opts := []wire.LBSServerOption{
		wire.WithHistoryLimit(*historyLimit),
		wire.WithHistoryUsers(*historyUsers),
	}
	for _, o := range shared {
		opts = append(opts, o)
	}
	var svc *gsp.Service
	if !*noAudit || *streamOn {
		svc = gsp.NewService(city.City, 1<<18)
	}
	if !*noAudit {
		opts = append(opts, wire.WithAuditor(wire.RegionAuditor{Svc: svc}))
	}

	var led *budget.Ledger
	if *budgetOn {
		policy := budget.Policy{
			LifetimeEps:   *budgetEps,
			LifetimeDelta: *budgetDelta,
			Window:        *budgetWindow,
			WindowEps:     *budgetWindowEps,
			WindowDelta:   *budgetWindowDelta,
			IdleTTL:       *budgetTTL,
		}
		if *budgetDir != "" {
			led, err = budget.Open(policy, *budgetDir, budget.WithSnapshotEvery(*snapshotEvery))
		} else {
			led, err = budget.New(policy)
		}
		if err != nil {
			return err
		}
		led.ExportMetrics(reg)
		opts = append(opts, wire.WithBudget(led, *releaseEps, *releaseDelta))
		logger.Printf("budget enforcement on: (ε=%v, δ=%v) per release, window %v of ε=%v, lifetime ε=%v, persistence %q",
			*releaseEps, *releaseDelta, policy.Window, policy.WindowEps, policy.LifetimeEps, *budgetDir)
	}

	// Shutdown tail for the stateful subsystems, in dependency order:
	// the stream's final flush charges the ledger, so it must run before
	// the ledger's closing snapshot. Registered before the stream starts
	// so every return path below drains it.
	var stopStream func()
	defer func() { stopStreamAndCloseLedger(logger, stopStream, led) }()

	if *streamOn {
		st, err := stream.NewStore(stream.Config{
			Window:     *streamWindow,
			MaxUsers:   *historyUsers,
			MaxPerUser: *streamPerUser,
			Bounds:     city.Bounds,
		})
		if err != nil {
			return err
		}
		pop := cloak.UniformPopulation(city.Bounds, *streamPop, *streamSeed)
		mech, err := defense.NewDPRelease(svc, pop, defense.DefaultDPReleaseConfig())
		if err != nil {
			return err
		}
		rel, err := stream.NewReleaser(st, svc, mech, led, stream.ReleaserConfig{
			Interval: *streamTick,
			Radius:   *streamRadius,
			Seed:     *streamSeed,
			History:  *streamHistory,
			Eps:      *streamEps,
			Delta:    *streamDelta,
		})
		if err != nil {
			return err
		}
		opts = append(opts, wire.WithStream(st, rel))
		stopStream = rel.Start(func(err error) { logger.Printf("stream release: %v", err) })
		logger.Printf("streaming ingestion on: %v window over ≤%d users × %d events, release every %v at radius %vm",
			*streamWindow, *historyUsers, *streamPerUser, rel.Config().Interval, rel.Config().Radius)
	}
	handler := wire.NewLBSServer(city.M(), opts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	obs.StartSummary(ctx, logger, reg, daemon.StatsInterval)
	if led != nil && *budgetTTL > 0 {
		startEvictLoop(ctx, logger, led, *budgetTTL)
	}
	logger.Printf("LBS app for %s on %s (audit=%v, metrics at %s)",
		city.Name, *addr, !*noAudit, obs.PathMetrics)
	return wire.ListenAndServe(ctx, *addr, handler, logger)
}

// stopStreamAndCloseLedger is the daemon's shutdown tail. The stream
// stop function blocks until the release loop exits and then publishes
// one final windowed release — charging every window still in flight to
// the budget ledger — so it must complete before the ledger writes its
// closing snapshot, or the drain would lose those spends. Either
// argument may be nil (subsystem not enabled).
func stopStreamAndCloseLedger(logger *log.Logger, stopStream func(), led *budget.Ledger) {
	if stopStream != nil {
		stopStream()
	}
	if led != nil {
		if err := led.Close(); err != nil {
			logger.Printf("budget ledger close: %v", err)
		}
	}
}

// startEvictLoop periodically retires ledgers idle past ttl, keeping the
// resident account set bounded on long-running daemons. The sweep
// interval is a quarter of the TTL, clamped to [1m, 1h].
func startEvictLoop(ctx context.Context, logger *log.Logger, led *budget.Ledger, ttl time.Duration) {
	interval := ttl / 4
	if interval < time.Minute {
		interval = time.Minute
	}
	if interval > time.Hour {
		interval = time.Hour
	}
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if n := led.EvictIdle(); n > 0 {
					logger.Printf("budget: retired %d idle ledgers", n)
				}
			}
		}
	}()
}
