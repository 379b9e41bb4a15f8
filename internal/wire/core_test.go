package wire

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"poiagg/internal/obs"
)

// coreServer is one of the three servers built on serverCore.
type coreServer struct {
	name string
	// build returns the server configured with opts, plus its core.
	build func(t *testing.T, opts ...ServerOption) (http.Handler, *serverCore)
	// apiPath is a GET route behind auth and admission.
	apiPath string
	// postPath is a POST route with a JSON body.
	postPath string
}

func coreServers() []coreServer {
	quiet := WithLogger(discardLogger())
	return []coreServer{
		{
			name: "gsp",
			build: func(t *testing.T, opts ...ServerOption) (http.Handler, *serverCore) {
				_, svc := wireFixture(t)
				s := NewGSPServer(svc, convertOpts[GSPServerOption](append([]ServerOption{quiet}, opts...))...)
				return s, &s.serverCore
			},
			apiPath:  PathStats,
			postPath: PathFreqBatch,
		},
		{
			name: "lbs",
			build: func(t *testing.T, opts ...ServerOption) (http.Handler, *serverCore) {
				city, _ := wireFixture(t)
				s := NewLBSServer(city.M(), convertOpts[LBSServerOption](append([]ServerOption{quiet}, opts...))...)
				return s, &s.serverCore
			},
			apiPath:  PathReleases + "?user=u",
			postPath: PathRelease,
		},
		{
			name: "gateway",
			build: func(t *testing.T, opts ...ServerOption) (http.Handler, *serverCore) {
				_, svc := wireFixture(t)
				shard := httptest.NewServer(NewGSPServer(svc, quiet))
				t.Cleanup(shard.Close)
				g, err := NewClusterGateway([]string{shard.URL},
					convertOpts[ClusterOption](append([]ServerOption{quiet}, opts...))...)
				if err != nil {
					t.Fatal(err)
				}
				return g, &g.serverCore
			},
			apiPath:  PathStats,
			postPath: PathFreqBatch,
		},
	}
}

// convertOpts lifts shared options into one server family's option type.
func convertOpts[O any](opts []ServerOption) []O {
	out := make([]O, len(opts))
	for i, o := range opts {
		out[i] = any(o).(O)
	}
	return out
}

// coreGet issues an unsigned GET and returns the status.
func coreGet(t *testing.T, url string) int {
	t.Helper()
	status, _ := getStatusAndBody(t, http.MethodGet, url, "")
	return status
}

// TestServerCoreContract pins what serverCore guarantees identically
// for GSPServer, LBSServer and ClusterGateway: the operational
// endpoints bypass auth and a saturated admission gate, auth rejects
// forgeries before they can take an admission slot, Drain fails
// /readyz, pprof is opt-in, and the body cap answers 413.
func TestServerCoreContract(t *testing.T) {
	// A body well past the 256-byte cap below; valid JSON for every
	// postPath's decoder up to the cap.
	oversized := `{"items":[` + strings.Repeat(`{"x":1,"y":1,"r":9},`, 40) + `{"x":1,"y":1,"r":9}]}`
	key := testKey('A')
	for _, cs := range coreServers() {
		t.Run(cs.name, func(t *testing.T) {
			t.Run("ops_bypass_saturated_gate", func(t *testing.T) {
				h, core := cs.build(t, WithAuth(mustKeyring(t, "alice")), WithAdmission(1, 0, 0))
				ts := httptest.NewServer(h)
				t.Cleanup(ts.Close)
				// Hold the gate's whole limit, as one in-flight request would.
				if _, ok := core.admit.acquire(reqWithCtx(context.Background()), 1); !ok {
					t.Fatal("idle gate refused its limit")
				}
				for _, path := range []string{obs.PathHealthz, obs.PathReadyz, obs.PathMetrics} {
					if got := coreGet(t, ts.URL+path); got != http.StatusOK {
						t.Errorf("%s = %d with the gate full and auth on, want 200", path, got)
					}
				}
				if got := fetchSnapshot(t, ts.URL).Counters[MetricAdmissionInflight]; got != 1 {
					t.Errorf("admission.inflight = %d with the gate held, want 1", got)
				}
				status, body := signedProbe(t, ts.URL, http.MethodGet, cs.apiPath, nil,
					"alice", key, time.Now(), "00000000000000c1", nil)
				if status != http.StatusServiceUnavailable {
					t.Errorf("signed API request through a full gate = %d, want 503 (%s)", status, body)
				}
				core.admit.release(1)
				if got := fetchSnapshot(t, ts.URL).Counters[MetricAdmissionInflight]; got != 0 {
					t.Errorf("admission.inflight = %d after release, want 0", got)
				}
			})

			t.Run("forged_signature_takes_no_slot", func(t *testing.T) {
				h, core := cs.build(t, WithAuth(mustKeyring(t, "alice")), WithAdmission(1, 0, 0))
				ts := httptest.NewServer(h)
				t.Cleanup(ts.Close)
				if _, ok := core.admit.acquire(reqWithCtx(context.Background()), 1); !ok {
					t.Fatal("idle gate refused its limit")
				}
				defer core.admit.release(1)
				// With no slot free and no queue, a request that reached
				// the gate would be shed: 401 proves auth ran first.
				status, body := signedProbe(t, ts.URL, http.MethodGet, cs.apiPath, nil,
					"alice", testKey('Z'), time.Now(), "00000000000000c2", nil)
				assertAuthReject(t, "forged", status, body, authBadSignature)
				if shed := core.admit.shed.Load(); shed != 0 {
					t.Errorf("admission.shed = %d after a forged request, want 0", shed)
				}
			})

			t.Run("drain_fails_readyz", func(t *testing.T) {
				h, core := cs.build(t)
				ts := httptest.NewServer(h)
				t.Cleanup(ts.Close)
				if got := coreGet(t, ts.URL+obs.PathReadyz); got != http.StatusOK {
					t.Fatalf("readyz before Drain = %d, want 200", got)
				}
				core.Drain()
				if got := coreGet(t, ts.URL+obs.PathReadyz); got != http.StatusServiceUnavailable {
					t.Errorf("readyz after Drain = %d, want 503", got)
				}
				if got := coreGet(t, ts.URL+obs.PathHealthz); got != http.StatusOK {
					t.Errorf("healthz after Drain = %d, want 200", got)
				}
			})

			t.Run("pprof_opt_in", func(t *testing.T) {
				off, _ := cs.build(t)
				offTS := httptest.NewServer(off)
				t.Cleanup(offTS.Close)
				if got := coreGet(t, offTS.URL+PathPprof); got != http.StatusNotFound {
					t.Errorf("pprof by default = %d, want 404", got)
				}
				// Enabled, it answers unsigned even with auth on.
				on, _ := cs.build(t, WithPprof(true), WithAuth(mustKeyring(t, "alice")))
				onTS := httptest.NewServer(on)
				t.Cleanup(onTS.Close)
				for _, path := range []string{PathPprof, PathPprof + "cmdline"} {
					if got := coreGet(t, onTS.URL+path); got != http.StatusOK {
						t.Errorf("%s with WithPprof(true) = %d, want 200", path, got)
					}
				}
			})

			t.Run("body_cap_413", func(t *testing.T) {
				for _, auth := range []bool{false, true} {
					opts := []ServerOption{WithMaxBody(256)}
					if auth {
						// The auth layer reads the body to hash it, so it
						// enforces the same cap before verifying.
						opts = append(opts, WithAuth(mustKeyring(t, "alice")))
					}
					h, _ := cs.build(t, opts...)
					ts := httptest.NewServer(h)
					status, body := getStatusAndBody(t, http.MethodPost, ts.URL+cs.postPath, oversized)
					ts.Close()
					if status != http.StatusRequestEntityTooLarge {
						t.Errorf("auth=%v: oversized %s = %d, want 413 (%s)", auth, cs.postPath, status, body)
					}
					assertJSONError(t, fmt.Sprintf("auth=%v oversized body", auth), body)
				}
			})
		})
	}

	t.Run("gateway_no_healthy_shard", func(t *testing.T) {
		dead := httptest.NewServer(http.NotFoundHandler())
		deadURL := dead.URL
		dead.Close()
		g, err := NewClusterGateway([]string{deadURL},
			WithLogger(discardLogger()), WithProbeTimeout(200*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(g)
		t.Cleanup(ts.Close)
		g.ProbeOnce(context.Background())
		if got := coreGet(t, ts.URL+obs.PathReadyz); got != http.StatusServiceUnavailable {
			t.Errorf("readyz with no healthy shard = %d, want 503", got)
		}
		g.Drain()
		if got := coreGet(t, ts.URL+obs.PathReadyz); got != http.StatusServiceUnavailable {
			t.Errorf("readyz drained with no healthy shard = %d, want 503", got)
		}
	})
}

// TestListenAndServeDrainsInFlight cancels the serve context while a
// slow request is in flight: the request still completes with 200, the
// helper returns nil, and the port is closed afterwards.
func TestListenAndServeDrainsInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	entered := make(chan struct{})
	var drained atomic.Bool
	slow := drainHandler{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/slow" {
				w.WriteHeader(http.StatusNoContent)
				return
			}
			close(entered)
			time.Sleep(300 * time.Millisecond)
			w.WriteHeader(http.StatusOK)
		}),
		drained: &drained,
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- ListenAndServe(ctx, addr, slow, discardLogger()) }()

	waitFor(t, "listener", func() bool {
		conn, err := net.Dial("tcp", addr)
		if err == nil {
			conn.Close()
		}
		return err == nil
	})
	got := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err != nil {
			t.Errorf("in-flight request failed: %v", err)
			got <- 0
			return
		}
		resp.Body.Close()
		got <- resp.StatusCode
	}()
	<-entered
	cancel()

	if status := <-got; status != http.StatusOK {
		t.Errorf("in-flight request = %d, want 200", status)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ListenAndServe = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ListenAndServe did not return after cancel")
	}
	if !drained.Load() {
		t.Error("Drain was not called before shutdown")
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Error("port still accepts connections after ListenAndServe returned")
	}
}

// drainHandler records the Drain call ListenAndServe makes.
type drainHandler struct {
	http.Handler
	drained *atomic.Bool
}

func (h drainHandler) Drain() { h.drained.Store(true) }
