package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"poiagg/internal/geo"
	"poiagg/internal/index"
	"poiagg/internal/poi"
)

// traceHeader carries "<request id>.<parent span id>" from one hop to
// the next. It is not part of the signed canonical request, so adding
// it leaves request signatures valid.
const traceHeader = "X-Bench-Span"

// Names of the spans recorded by the transports.
const (
	spanShardRPC  = "wire.gateway_rpc"
	spanClientRPC = "wire.client_http"
)

// span is one timed call into a layer. Spans of one request share req;
// parent is the span that caused this one (0 at the root).
type span struct {
	name       string
	req        uint64
	id, parent uint64
	start, end int64 // ns since the tracer's epoch
}

// spanRef identifies the current span in a context.
type spanRef struct{ req, id uint64 }

type spanKey struct{}

// tracer records spans in memory; they are folded into per-layer
// metrics when the run ends. A nil *tracer records nothing and its
// wrappers return what they wrap, so the untraced run carries none of
// this code on its request path.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span

	countTypes  durHist
	withinCalls atomic.Uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// begin opens a root-or-child span under ctx's current span (a new
// request when ctx has none) and returns the context carrying it and
// the function that closes it.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		parent = spanRef{req: t.newID()}
	}
	s := span{name: name, req: parent.req, id: t.newID(), parent: parent.id, start: t.now()}
	return context.WithValue(ctx, spanKey{}, spanRef{req: s.req, id: s.id}), func() {
		s.end = t.now()
		t.record(s)
	}
}

func formatRef(r spanRef) string {
	return strconv.FormatUint(r.req, 16) + "." + strconv.FormatUint(r.id, 16)
}

func parseRef(v string) (spanRef, bool) {
	a, b, ok := strings.Cut(v, ".")
	if !ok {
		return spanRef{}, false
	}
	req, err1 := strconv.ParseUint(a, 16, 64)
	id, err2 := strconv.ParseUint(b, 16, 64)
	return spanRef{req, id}, err1 == nil && err2 == nil
}

// handler wraps a server: a request carrying the trace header gets a
// span named after the layer and its route, and the span rides in the
// request context so the layer's outgoing calls become its children.
func (t *tracer) handler(layer string, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, ok := parseRef(r.Header.Get(traceHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		ctx := context.WithValue(r.Context(), spanKey{}, parent)
		ctx, end := t.begin(ctx, layer+routeName(r.URL.Path))
		next.ServeHTTP(w, r.WithContext(ctx))
		end()
	})
}

// routeName maps a path to a span-name suffix.
func routeName(path string) string {
	switch path {
	case "/v1/freq":
		return ".freq"
	case "/v1/freq/batch":
		return ".batch"
	case "/v1/ingest":
		return ".ingest"
	case "/v1/release":
		return ".release"
	case "/v1/stream/releases":
		return ".releases_read"
	}
	return ".other"
}

// transport wraps a RoundTripper: a call made under a traced context
// gets a span called name that ends when the response body is closed,
// and the callee learns its parent through the trace header.
func (t *tracer) transport(name string, next http.RoundTripper) http.RoundTripper {
	if t == nil {
		return next
	}
	return &tracedTransport{t: t, name: name, next: next}
}

type tracedTransport struct {
	t    *tracer
	name string
	next http.RoundTripper
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return tt.next.RoundTrip(req)
	}
	s := span{name: tt.name, req: parent.req, id: tt.t.newID(), parent: parent.id, start: tt.t.now()}
	out := req.Clone(req.Context())
	out.Header.Set(traceHeader, formatRef(spanRef{req: s.req, id: s.id}))
	resp, err := tt.next.RoundTrip(out)
	if err != nil {
		s.end = tt.t.now()
		tt.t.record(s)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, s: s}
	return resp, nil
}

// spanBody closes its span when the caller is done with the response.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.end = b.t.now()
		b.t.record(b.s)
	})
	return err
}

// wrapIndex counts index calls. CountTypes runs millions of times in a
// repro pass, so it is folded into a duration histogram instead of one
// span per call.
func (t *tracer) wrapIndex(ix index.Index) index.Index {
	return &tracedIndex{Index: ix, t: t}
}

type tracedIndex struct {
	index.Index
	t *tracer
}

func (ix *tracedIndex) CountTypes(out poi.FreqVector, center geo.Point, radius float64) {
	start := time.Now()
	ix.Index.CountTypes(out, center, radius)
	ix.t.countTypes.observe(time.Since(start))
}

func (ix *tracedIndex) Within(dst []poi.POI, center geo.Point, radius float64) []poi.POI {
	ix.t.withinCalls.Add(1)
	return ix.Index.Within(dst, center, radius)
}

// durHist is a lock-free log-linear duration histogram: 16 buckets per
// power of two of nanoseconds, so a quantile is within ~4% of exact.
type durHist struct {
	n       atomic.Uint64
	buckets [64 * 16]atomic.Uint64
}

func (h *durHist) observe(d time.Duration) {
	h.n.Add(1)
	h.buckets[durBucket(uint64(max(d, 1)))].Add(1)
}

func durBucket(ns uint64) int {
	e := bits.Len64(ns) - 1 // ns in [2^e, 2^(e+1))
	if e < 4 {
		return int(ns) // exact below 16ns
	}
	return e*16 + int((ns>>(e-4))&15)
}

// bucketLow is the smallest duration mapped to bucket b.
func bucketLow(b int) float64 {
	e, sub := b/16, b%16
	if e < 4 {
		return float64(b)
	}
	return math.Ldexp(float64(16+sub), e-4)
}

// quantile returns the q-quantile in nanoseconds (bucket midpoint).
func (h *durHist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for b := range h.buckets {
		seen += h.buckets[b].Load()
		if seen >= rank {
			return (bucketLow(b) + bucketLow(b+1)) / 2
		}
	}
	return bucketLow(len(h.buckets) - 1)
}

// spanStats folds the recorded spans: durations per span name, and per
// gateway span its self time (duration minus the union of its rpc
// children) and child count.
type spanStats struct {
	durs       map[string][]float64 // ms
	gwSelf     []float64            // ms
	gwRPCs     int
	gwRequests int
	reqOK      bool // every child shares its parent's request id
	rpcOK      bool // every shard RPC is the child of a gateway span
}

func (t *tracer) fold() spanStats {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	st := spanStats{durs: make(map[string][]float64), reqOK: true, rpcOK: true}
	byID := make(map[uint64]*span, len(spans))
	children := make(map[uint64][]*span)
	for i := range spans {
		s := &spans[i]
		byID[s.id] = s
		st.durs[s.name] = append(st.durs[s.name], float64(s.end-s.start)/1e6)
	}
	for i := range spans {
		s := &spans[i]
		p, ok := byID[s.parent]
		if ok {
			children[p.id] = append(children[p.id], s)
			st.reqOK = st.reqOK && p.req == s.req
		}
		if s.name == spanShardRPC {
			st.rpcOK = st.rpcOK && ok && strings.HasPrefix(p.name, "wire.gateway.")
		}
	}
	for i := range spans {
		s := &spans[i]
		if !strings.HasPrefix(s.name, "wire.gateway.") {
			continue
		}
		st.gwRequests++
		var kids [][2]int64
		for _, c := range children[s.id] {
			if c.name == spanShardRPC {
				st.gwRPCs++
				kids = append(kids, [2]int64{max(c.start, s.start), min(c.end, s.end)})
			}
		}
		st.gwSelf = append(st.gwSelf, float64(s.end-s.start-covered(kids))/1e6)
	}
	return st
}

// covered returns the total length of the union of intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes every recorded span to path as one JSON object per
// line, times in ns since the tracer started.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(struct {
			Name   string `json:"name"`
			Req    uint64 `json:"req"`
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
		}{s.name, s.req, s.id, s.parent, s.start, s.end}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
