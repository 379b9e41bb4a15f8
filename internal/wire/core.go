package wire

import (
	"errors"
	"log"
	"net/http"
	"sync/atomic"
	"time"

	"poiagg/internal/obs"
)

// DefaultMaxBody is the POST body cap unless WithMaxBody overrides it.
const DefaultMaxBody = 1 << 20

// defaultMaxRadius is the query radius cap in meters unless
// WithMaxRadius overrides it.
const defaultMaxRadius = 10_000

// batchPaths admit themselves at item weight after decoding (admitBatch)
// instead of at weight 1 in the admission middleware.
var batchPaths = map[string]bool{PathFreqBatch: true, PathQueryBatch: true}

// errDraining is the readiness error reported after Drain.
var errDraining = errors.New("draining")

// serverCore is everything GSPServer, LBSServer and ClusterGateway
// share: the route mux, the metrics registry, the request logger, the
// request limits, and the one middleware chain (see build). Each server
// embeds it, sets its own fields, registers its routes and calls build.
type serverCore struct {
	mux *http.ServeMux
	reg *obs.Registry
	log *log.Logger
	// maxRadius rejects abusive range queries.
	maxRadius float64
	// maxBody caps POST request bodies in bytes.
	maxBody int64
	pprof   bool

	admitCfg AdmissionConfig
	admit    *admission // nil when admission is disabled

	authKeys *Keyring
	authOpts []AuthOption
	auth     *authenticator // nil when auth is disabled

	draining atomic.Bool
	// ready, when set, is the server's own readiness condition,
	// consulted by /readyz after the drain flag.
	ready   func() error
	handler http.Handler
}

// init sets the shared defaults; options are applied after it.
func (c *serverCore) init() {
	c.mux = http.NewServeMux()
	c.reg = obs.NewRegistry()
	c.log = log.Default()
	c.maxRadius = defaultMaxRadius
	c.maxBody = DefaultMaxBody
}

// build mounts pprof when enabled and wraps the mux in the middleware
// chain, outermost first:
//
//   - obs.Instrument answers /healthz, /readyz and /v1/metrics itself and
//     times and logs every other request, so probes and scrapes never
//     meet auth or the admission gate;
//   - auth verifies the signature, so a forged request costs one HMAC
//     and never occupies an admission slot;
//   - admission gates what is left at weight 1, except selfAdmit paths,
//     which call admitBatch at item weight once decoded.
func (c *serverCore) build(selfAdmit map[string]bool) {
	if c.pprof {
		registerPprof(c.mux)
	}
	var h http.Handler = c.mux
	if c.admitCfg.Limit > 0 {
		c.admit = newAdmission(c.admitCfg)
		c.admit.export(c.reg)
		h = c.admit.middleware(h, selfAdmit)
	}
	if c.auth = newServerAuth(c.authKeys, c.authOpts); c.auth != nil {
		c.auth.export(c.reg)
		h = c.auth.middleware(h, c.maxBody)
	}
	c.handler = obs.Instrument(c.reg, h,
		obs.WithRequestHook(c.logRequest),
		obs.WithReadyCheck(c.readyCheck))
}

// Metrics returns the server's metrics registry.
func (c *serverCore) Metrics() *obs.Registry { return c.reg }

// Drain flips /readyz to 503 so load balancers stop routing new work
// here while in-flight requests finish; ListenAndServe calls it before
// http.Server.Shutdown.
func (c *serverCore) Drain() { c.draining.Store(true) }

// ServeHTTP implements http.Handler.
func (c *serverCore) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.handler.ServeHTTP(w, r)
}

func (c *serverCore) readyCheck() error {
	if c.draining.Load() {
		return errDraining
	}
	if c.ready != nil {
		return c.ready()
	}
	return nil
}

func (c *serverCore) logRequest(method, path string, status int, d time.Duration) {
	c.log.Printf("%s %s %d %s", method, path, status, d.Round(time.Microsecond))
}

// admitBatch charges a decoded batch by its item weight against the
// admission gate: a 256-item batch occupies 256 slots (or the whole gate
// if smaller), so batches cannot smuggle unbounded fan-out work past a
// per-request concurrency bound. Returns a release func, or writes the
// 503 shed and reports false. No-op when admission is disabled.
func (c *serverCore) admitBatch(w http.ResponseWriter, r *http.Request, n int) (func(), bool) {
	if c.admit == nil {
		return func() {}, true
	}
	return c.admit.admitHTTP(w, r, int64(n))
}

// ServerOption configures what GSPServer, LBSServer and ClusterGateway
// share; it satisfies GSPServerOption, LBSServerOption and ClusterOption,
// so one value configures any of the three identically.
type ServerOption func(*serverCore)

func (o ServerOption) applyGSP(s *GSPServer)          { o(&s.serverCore) }
func (o ServerOption) applyLBS(s *LBSServer)          { o(&s.serverCore) }
func (o ServerOption) applyCluster(g *ClusterGateway) { o(&g.serverCore) }

// WithLogger sets the request logger (default log.Default()).
func WithLogger(l *log.Logger) ServerOption {
	return func(c *serverCore) { c.log = l }
}

// WithMetrics shares an externally owned metrics registry (default: a
// fresh private one). Daemons pass their process registry so client
// counters and server routes appear in one /v1/metrics document.
func WithMetrics(reg *obs.Registry) ServerOption {
	return func(c *serverCore) {
		if reg != nil {
			c.reg = reg
		}
	}
}

// WithPprof serves the net/http/pprof profiling endpoints under
// /debug/pprof/ (default off — the endpoints expose runtime internals,
// so daemons gate them behind an explicit -pprof flag).
func WithPprof(on bool) ServerOption {
	return func(c *serverCore) { c.pprof = on }
}

// WithMaxRadius caps the accepted query radius in meters (default
// 10 km). A gateway's cap must match its shards' so gateway-side
// validation rejects exactly what the shards would.
func WithMaxRadius(r float64) ServerOption {
	return func(c *serverCore) { c.maxRadius = r }
}

// WithMaxBody caps the accepted POST request body in bytes (default
// 1 MiB). Oversized bodies get 413 with a structured error before any
// decoding buffers attacker-sized payloads.
func WithMaxBody(n int64) ServerOption {
	return func(c *serverCore) {
		if n > 0 {
			c.maxBody = n
		}
	}
}

// WithAdmission bounds concurrent work on a server: at most limit
// weight executes at once, up to queue requests wait FIFO for at most
// timeout (or their own deadline, whichever is sooner), and everything
// beyond that is shed with 503, a Retry-After header, and a structured
// AdmissionErrorResponse body. Batch requests count by item weight. The
// operational endpoints bypass the limiter. limit <= 0 disables
// admission (the default).
func WithAdmission(limit, queue int, timeout time.Duration) ServerOption {
	cfg := AdmissionConfig{Limit: limit, Queue: queue, Timeout: timeout}
	return func(c *serverCore) { c.admitCfg = cfg }
}

// WithAuth requires a valid request signature on every API route of a
// server: clients sign with WithSigningKey, the server verifies against
// the keyring in constant time, rejects forgeries and tampering with
// 401 + a structured AuthErrorResponse, rejects timestamps outside the
// window and replayed nonces, and passes the verified principal
// downstream (VerifiedPrincipal) — when auth is on, the budget ledger
// charges only that identity and the X-Principal fallback chain is
// disabled. Operational endpoints (/healthz, /readyz, /v1/metrics) and
// the opt-in pprof prefix stay unsigned. A nil or empty keyring
// disables auth (the default), leaving every flow byte-identical to an
// unauthenticated server.
func WithAuth(kr *Keyring, opts ...AuthOption) ServerOption {
	return func(c *serverCore) { c.authKeys, c.authOpts = kr, opts }
}
