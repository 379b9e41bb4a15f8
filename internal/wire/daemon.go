package wire

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"time"

	"poiagg/internal/obs"
)

// DaemonFlags are the hardening and operations flags gspd, lbsd and
// gspgw share. RegisterDaemonFlags defines them on a flag set; Options
// turns the parsed values into server options.
type DaemonFlags struct {
	AdmitLimit    int
	AdmitQueue    int
	AdmitTimeout  time.Duration
	MaxBody       int64
	AuthKeys      string
	AuthWindow    time.Duration
	Pprof         bool
	StatsInterval time.Duration
}

// RegisterDaemonFlags defines -admit-limit, -admit-queue,
// -admit-timeout, -max-body, -auth-keys, -auth-window, -pprof and
// -stats-interval on fs.
func RegisterDaemonFlags(fs *flag.FlagSet) *DaemonFlags {
	f := &DaemonFlags{}
	fs.IntVar(&f.AdmitLimit, "admit-limit", 0, "admission control: max concurrent request weight (0 disables)")
	fs.IntVar(&f.AdmitQueue, "admit-queue", 128, "admission control: max requests waiting for a slot")
	fs.DurationVar(&f.AdmitTimeout, "admit-timeout", 500*time.Millisecond, "admission control: max queue wait before shedding")
	fs.Int64Var(&f.MaxBody, "max-body", DefaultMaxBody, "maximum accepted POST body in bytes")
	fs.StringVar(&f.AuthKeys, "auth-keys", "", "require signed requests; principal=hexkey[,principal=hexkey...] or @file with one pair per line (empty disables auth)")
	fs.DurationVar(&f.AuthWindow, "auth-window", DefaultAuthWindow, "signed-request timestamp validity window")
	fs.BoolVar(&f.Pprof, "pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	fs.DurationVar(&f.StatsInterval, "stats-interval", time.Minute, "periodic traffic summary log interval (0 disables)")
	return f
}

// Options returns the server options the flags select — logger,
// metrics registry, body cap, pprof, admission and auth — and logs each
// protection it turns on. It fails only on an unreadable -auth-keys.
func (f *DaemonFlags) Options(logger *log.Logger, reg *obs.Registry) ([]ServerOption, error) {
	opts := []ServerOption{
		WithLogger(logger),
		WithMetrics(reg),
		WithMaxBody(f.MaxBody),
		WithPprof(f.Pprof),
	}
	if f.AdmitLimit > 0 {
		opts = append(opts, WithAdmission(f.AdmitLimit, f.AdmitQueue, f.AdmitTimeout))
		logger.Printf("admission control on: limit %d, queue %d, wait %v",
			f.AdmitLimit, f.AdmitQueue, f.AdmitTimeout)
	}
	if f.AuthKeys != "" {
		kr, err := LoadKeyring(f.AuthKeys)
		if err != nil {
			return nil, err
		}
		opts = append(opts, WithAuth(kr, WithAuthWindow(f.AuthWindow)))
		logger.Printf("request signing required: %d principals, ±%v window", kr.Len(), f.AuthWindow)
	}
	if f.Pprof {
		logger.Printf("pprof profiling enabled at %s", PathPprof)
	}
	return opts, nil
}

// ListenAndServe serves h on addr until ctx is done, then shuts down
// gracefully: h.Drain (when h has one) flips /readyz to 503 so load
// balancers stop routing here, and http.Server.Shutdown lets in-flight
// requests finish for up to 10 seconds. It returns nil after a clean
// shutdown, or the listen, serve or shutdown error.
func ListenAndServe(ctx context.Context, addr string, h http.Handler, logger *log.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Print("shutting down")
	if d, ok := h.(interface{ Drain() }); ok {
		d.Drain()
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err = srv.Shutdown(sctx)
	<-errCh // Serve returns ErrServerClosed as soon as Shutdown starts.
	return err
}
