package wire

import (
	"net/http"
	"testing"
)

func TestGSPServerPprofOptIn(t *testing.T) {
	ts, _ := newGSPTestServer(t, WithPprof(true))
	if got := coreGet(t, ts.URL+PathPprof); got != http.StatusOK {
		t.Errorf("pprof index with WithPprof(true): status %d", got)
	}
	if got := coreGet(t, ts.URL+PathPprof+"cmdline"); got != http.StatusOK {
		t.Errorf("pprof cmdline with WithPprof(true): status %d", got)
	}
}

func TestGSPServerPprofDefaultOff(t *testing.T) {
	ts, _ := newGSPTestServer(t)
	if got := coreGet(t, ts.URL+PathPprof); got != http.StatusNotFound {
		t.Errorf("pprof index without opt-in: status %d, want 404", got)
	}
}
