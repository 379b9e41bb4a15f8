package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"poiagg/internal/budget"
	"poiagg/internal/citygen"
	"poiagg/internal/cloak"
	"poiagg/internal/defense"
	"poiagg/internal/gsp"
	"poiagg/internal/index"
	"poiagg/internal/obs"
	"poiagg/internal/stream"
	"poiagg/internal/wire"
)

// Serving topology: gspgw in front of numShards gspd shards, plus one
// lbsd. Every server runs in this process on its own 127.0.0.1:0
// listener, built with the daemons' constructors and defaults.
const numShards = 2

// Principals. The load signs as one of loadPrincipals; the gateway
// signs its shard calls as gatewayPrincipal, as gspgw -peer-auth-key
// does. Four load principals spread the budget ledger over accounts.
var loadPrincipals = []string{"tenant-a", "tenant-b", "tenant-c", "tenant-d"}

const gatewayPrincipal = "gspgw"

// LBS stream sizing. lbsd's -history-users default (10,000) would let a
// run's cohorts fit without eviction; 256 users × 64 events keeps a tick
// bounded and makes the rotating cohorts evict, as the workload intends.
const (
	streamMaxUsers   = 256
	streamMaxPerUser = stream.DefaultMaxPerUser
	releaseEps       = 0.5
	releaseDelta     = 1e-6
	streamEps        = 0.5
	streamDelta      = 1e-6
)

// budgetPolicy is sized so that no release or tick of a run is denied:
// lbsd's window shape (24h sliding window) with limits far above what a
// run can spend.
var budgetPolicy = budget.Policy{
	LifetimeEps:   1e12,
	LifetimeDelta: 0.5,
	Window:        24 * time.Hour,
	WindowEps:     1e12,
}

// stack is one deployment of the serving side. Close releases
// everything it started: listeners, server goroutines, the gateway
// prober, the ledger, log files and the temp dir.
type stack struct {
	dir   string
	city  *citygen.City
	keys  map[string][]byte
	addrs []string

	shardSvcs []*gsp.Service
	shards    []*wire.GSPServer
	gwReg     *obs.Registry
	gspURL    string

	lbsSvc *gsp.Service
	store  *stream.Store
	rel    *stream.Releaser
	led    *budget.Ledger
	ledReg *obs.Registry
	lbsURL string

	peerTransport *http.Transport
	cancelProber  context.CancelFunc
	servers       []*servedListener
	logs          []*os.File
}

// servedListener is one http.Server and the goroutine serving it.
type servedListener struct {
	srv  *http.Server
	done chan struct{}
}

// citySeed is the daemons' default -seed: every server hosts the
// Beijing preset they serve out of the box. The benchmark's own seed
// drives the traffic, not the city.
const citySeed = 1

// startStack generates the Beijing-preset city and starts the fleet in
// a fresh temp dir under tmpRoot. On error everything already started
// is stopped again.
func startStack(ctx context.Context, tmpRoot string, tr *tracer) (st *stack, err error) {
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, fmt.Errorf("create temp root: %w", err)
	}
	dir, err := os.MkdirTemp(tmpRoot, "stack-")
	if err != nil {
		return nil, fmt.Errorf("create temp dir: %w", err)
	}
	st = &stack{dir: dir, keys: make(map[string][]byte)}
	defer func() {
		if err != nil {
			st.Close()
			st = nil
		}
	}()

	if st.city, err = citygen.Generate(citygen.Beijing(citySeed)); err != nil {
		return st, fmt.Errorf("generate city: %w", err)
	}
	if tr != nil {
		st.city.City.WrapIndex(func(ix index.Index) index.Index { return tr.wrapIndex(ix) })
	}

	kr := wire.NewKeyring()
	for i, p := range append([]string{gatewayPrincipal}, loadPrincipals...) {
		key := make([]byte, 32)
		for j := range key {
			key[j] = byte(i*31 + j*7)
		}
		if err := kr.Add(p, key); err != nil {
			return st, err
		}
		st.keys[p] = key
	}
	auth := wire.WithAuth(kr)

	// gspd shards: one gsp.Service each over the shared city.
	var peers []string
	for i := 0; i < numShards; i++ {
		logger, err := st.logger(fmt.Sprintf("gspd-%d.log", i), "gspd ")
		if err != nil {
			return st, err
		}
		reg := obs.NewRegistry()
		svc := gsp.NewService(st.city.City, 1<<18)
		svc.ExportMetrics(reg)
		srv := wire.NewGSPServer(svc,
			wire.WithLogger(logger),
			wire.WithMaxRadius(10_000),
			wire.WithMetrics(reg),
			wire.WithMaxBody(wire.DefaultMaxBody),
			auth)
		url, err := st.serve(tr.handler("wire.gsp", srv))
		if err != nil {
			return st, err
		}
		st.shardSvcs = append(st.shardSvcs, svc)
		st.shards = append(st.shards, srv)
		peers = append(peers, url)
	}

	// gspgw: default gateway options, signing its shard calls.
	gwLog, err := st.logger("gspgw.log", "gspgw ")
	if err != nil {
		return st, err
	}
	st.gwReg = obs.NewRegistry()
	st.peerTransport = http.DefaultTransport.(*http.Transport).Clone()
	gw, err := wire.NewClusterGateway(peers,
		wire.WithClusterLogger(gwLog),
		wire.WithClusterMetrics(st.gwReg),
		wire.WithPeerTransport(tr.transport(spanShardRPC, st.peerTransport)),
		wire.WithPeerClientOptions(
			wire.WithRetries(2),
			wire.WithRequestTimeout(5*time.Second),
			wire.WithSigningKey(gatewayPrincipal, st.keys[gatewayPrincipal])),
		wire.WithMaxBody(wire.DefaultMaxBody),
		auth)
	if err != nil {
		return st, fmt.Errorf("gateway: %w", err)
	}
	proberCtx, cancel := context.WithCancel(ctx)
	st.cancelProber = cancel
	if st.gspURL, err = st.serve(tr.handler("wire.gateway", gw)); err != nil {
		return st, err
	}
	gw.StartProber(proberCtx)

	// lbsd -stream -budget -budget-dir, auditing against its own service.
	lbsLog, err := st.logger("lbsd.log", "lbsd ")
	if err != nil {
		return st, err
	}
	lbsReg := obs.NewRegistry()
	st.lbsSvc = gsp.NewService(st.city.City, 1<<18)
	st.ledReg = obs.NewRegistry()
	if st.led, err = budget.Open(budgetPolicy, filepath.Join(dir, "budget"), budget.WithSnapshotEvery(1000)); err != nil {
		return st, fmt.Errorf("open ledger: %w", err)
	}
	st.led.ExportMetrics(st.ledReg)
	if st.store, err = stream.NewStore(stream.Config{
		Window:     stream.DefaultWindow,
		MaxUsers:   streamMaxUsers,
		MaxPerUser: streamMaxPerUser,
		Bounds:     st.city.Bounds,
	}); err != nil {
		return st, err
	}
	mech, err := defense.NewDPRelease(st.lbsSvc, cloak.UniformPopulation(st.city.Bounds, 2000, 1), defense.DefaultDPReleaseConfig())
	if err != nil {
		return st, err
	}
	if st.rel, err = stream.NewReleaser(st.store, st.lbsSvc, mech, st.led, stream.ReleaserConfig{
		Interval: stream.DefaultInterval,
		Radius:   stream.DefaultRadius,
		Seed:     1,
		History:  stream.DefaultHistory,
		Eps:      streamEps,
		Delta:    streamDelta,
	}); err != nil {
		return st, err
	}
	lbs := wire.NewLBSServer(st.city.M(),
		wire.WithHistoryLimit(1000),
		wire.WithHistoryUsers(wire.DefaultHistoryUsers),
		wire.WithLBSMetrics(lbsReg),
		wire.WithLBSLogger(lbsLog),
		wire.WithMaxBody(wire.DefaultMaxBody),
		auth,
		wire.WithAuditor(wire.RegionAuditor{Svc: st.lbsSvc}),
		wire.WithBudget(st.led, releaseEps, releaseDelta),
		wire.WithStream(st.store, st.rel))
	if st.lbsURL, err = st.serve(tr.handler("wire.lbs", lbs)); err != nil {
		return st, err
	}
	return st, nil
}

// logger opens a per-server request log in the temp dir. Every request
// line is one synchronous write, the cost gspd pays logging to stderr.
func (st *stack) logger(name, prefix string) (*log.Logger, error) {
	f, err := os.Create(filepath.Join(st.dir, name))
	if err != nil {
		return nil, fmt.Errorf("open request log: %w", err)
	}
	st.logs = append(st.logs, f)
	return log.New(f, prefix, log.LstdFlags), nil
}

// serve starts h on a fresh loopback listener with gspd's server
// timeouts and returns its base URL.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	sl := &servedListener{
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       10 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       60 * time.Second,
			ErrorLog:          log.New(io.Discard, "", 0),
		},
		done: make(chan struct{}),
	}
	go func() {
		defer close(sl.done)
		_ = sl.srv.Serve(ln) // returns ErrServerClosed once Close runs
	}()
	st.servers = append(st.servers, sl)
	st.addrs = append(st.addrs, ln.Addr().String())
	return "http://" + ln.Addr().String(), nil
}

// Close stops the prober, every server (waiting for its Serve goroutine),
// the ledger and the log files, and removes the temp dir. It is safe on
// a partially started stack.
func (st *stack) Close() error {
	var errs []error
	if st.cancelProber != nil {
		st.cancelProber()
	}
	for _, sl := range st.servers {
		if err := sl.srv.Close(); err != nil {
			errs = append(errs, err)
		}
		<-sl.done
	}
	if st.peerTransport != nil {
		st.peerTransport.CloseIdleConnections()
	}
	if st.led != nil {
		if err := st.led.Close(); err != nil {
			errs = append(errs, fmt.Errorf("close ledger: %w", err))
		}
	}
	for _, f := range st.logs {
		if err := f.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if err := os.RemoveAll(st.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
