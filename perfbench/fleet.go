package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dynlb/internal/dist"
)

// spanHeader and spanIDHeader carry the coordinator-side span index and id
// of a fleet request to the worker-side handler, so the two spans of one
// range are linked.
const (
	spanHeader   = "X-Perfbench-Span"
	spanIDHeader = "X-Perfbench-Span-Id"
)

// fleet is an in-process worker fleet: one dist.Worker per loopback
// listener and a coordinator that must use them (local fallback disabled).
type fleet struct {
	servers   []*http.Server
	urls      []string
	base      *http.Transport
	coord     *dist.Coordinator
	transport *countingTransport // nil unless traced
	handlers  []*timedHandler    // empty unless traced
}

// startFleet starts n single-slot workers and a coordinator whose HTTP
// client opens at most one connection per worker. With tr non-nil the
// coordinator's transport and the workers' handlers are wrapped to count and
// time every dispatched range on both sides of the wire; otherwise both are
// the plain ones.
func startFleet(ctx context.Context, n int, tr *tracer) (*fleet, error) {
	f := &fleet{base: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	var rt http.RoundTripper = f.base
	if tr != nil {
		f.transport = &countingTransport{base: f.base, tr: tr}
		rt = f.transport
	}
	for w := 0; w < n; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		var h http.Handler = dist.NewWorker(1)
		if tr != nil {
			th := &timedHandler{next: h, tr: tr}
			f.handlers = append(f.handlers, th)
			h = th
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed once close runs
		f.servers = append(f.servers, srv)
		f.urls = append(f.urls, "http://"+ln.Addr().String())
	}
	f.coord = dist.New(dist.Options{
		Workers:      f.urls,
		Client:       &http.Client{Transport: rt},
		DisableLocal: true,
		LocalWorkers: 1,
	})
	if live := f.coord.Pool().Probe(ctx); live != n {
		f.close()
		return nil, errors.New("perfbench: fleet workers did not answer the health probe")
	}
	return f, nil
}

func (f *fleet) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.base.CloseIdleConnections()
}

// handlerNS is the summed worker-side handling time of range requests.
func (f *fleet) handlerNS() int64 {
	var ns int64
	for _, h := range f.handlers {
		ns += h.ns.Load()
	}
	return ns
}

// countingTransport times and counts the coordinator's range requests
// (POST /v1/jobs): round-trip time until the response body is closed, and
// request and response bytes. Health probes pass through uncounted.
type countingTransport struct {
	base *http.Transport
	tr   *tracer

	mu                  sync.Mutex
	parent              int    // span index of the sweep in flight
	id                  string // and its id
	ranges              int64
	rttNS               int64
	reqBytes, respBytes int64
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path != "/v1/jobs" {
		return t.base.RoundTrip(req)
	}
	t.mu.Lock()
	parent, id := t.parent, t.id
	t.mu.Unlock()
	sp := t.tr.begin("dist.rtt", id, parent)
	if sp >= 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(sp))
		req.Header.Set(spanIDHeader, id)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.end(sp)
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		t.tr.end(sp)
		t.mu.Lock()
		t.ranges++
		t.rttNS += int64(time.Since(start))
		t.reqBytes += req.ContentLength
		t.respBytes += n
		t.mu.Unlock()
	}}
	return resp, nil
}

// setSweep names the sweep whose range requests follow.
func (t *countingTransport) setSweep(parent int, id string) {
	t.mu.Lock()
	t.parent, t.id = parent, id
	t.mu.Unlock()
}

func (t *countingTransport) totals() (ranges, rttNS, reqBytes, respBytes int64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ranges, t.rttNS, t.reqBytes, t.respBytes
}

// countingBody counts the bytes read from a response body and reports them
// once, when the body is closed.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countingBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// timedHandler wraps a worker's handler and times its range requests,
// recording a span under the coordinator-side span named in spanHeader.
type timedHandler struct {
	next http.Handler
	tr   *tracer
	ns   atomic.Int64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/jobs" {
		h.next.ServeHTTP(w, r)
		return
	}
	parent := -1
	if v := r.Header.Get(spanHeader); v != "" {
		if i, err := strconv.Atoi(v); err == nil {
			parent = i
		}
	}
	// The handler decodes, simulates and encodes; only the wire and the
	// coordinator around it are the dist layer's own time, so the span
	// belongs to a layer of its own.
	sp := h.tr.begin("worker.jobs", r.Header.Get(spanIDHeader), parent)
	start := time.Now()
	h.next.ServeHTTP(w, r)
	h.ns.Add(int64(time.Since(start)))
	h.tr.end(sp)
}
