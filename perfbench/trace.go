package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dssp/internal/httpapi"
)

// Process names: the layers a span belongs to.
const (
	procClient = "client"
	procRouter = "router"
	procNode   = "node"
	procHome   = "home"
)

// spanHeader carries a round-trip span's ID from the caller's
// round-tripper to the callee's handler middleware, so a handler span
// knows exactly which call it served. It is added by the traced run's
// wrappers only; the program never reads it.
const spanHeader = "X-Perfbench-Span"

type spanKind uint8

const (
	kindOp      spanKind = iota // one Client.Query/Update call in the generator
	kindRT                      // one HTTP round trip, request sent to response body closed
	kindHandler                 // one server handler invocation
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// on the tracer's monotonic clock.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // client round trip: its op; other round trips: the calling handler; handler: its round trip
	Kind   string `json:"kind"`             // op | rt | handler
	Trace  string `json:"trace,omitempty"`  // X-DSSP-Trace
	Proc   string `json:"proc"`             // process that ran the span (caller, for round trips)
	To     string `json:"to,omitempty"`     // callee process of a round trip
	Path   string `json:"path,omitempty"`   // URL path of a round trip or handler
	Op     string `json:"op,omitempty"`     // hit | miss | update, on op spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"` // request + response body bytes of a round trip

	kind spanKind
}

func (s *span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of the traced run in memory. A nil *tracer is
// the untraced run: its wrappers install nothing.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	ids   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

type opIDKey struct{}

// startOp begins an op span; the returned context carries its ID to the
// client's round-tripper, which links the client→router call to it.
func (t *tracer) startOp(ctx context.Context) (context.Context, int64, int64) {
	if t == nil || !t.on.Load() {
		return ctx, 0, 0
	}
	id := t.ids.Add(1)
	return context.WithValue(ctx, opIDKey{}, id), id, t.now()
}

func (t *tracer) endOp(id, start int64, op string) {
	if id == 0 {
		return
	}
	t.record(span{ID: id, kind: kindOp, Proc: procClient, Op: op, Start: start, End: t.now()})
}

// handler wraps a server's handler with span middleware.
func (t *tracer) handler(proc string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		t.record(span{
			ID: t.ids.Add(1), Parent: parent, kind: kindHandler, Proc: proc,
			Trace: r.Header.Get(httpapi.TraceHeader), Path: r.URL.Path, Start: start, End: t.now(),
		})
	})
}

// client builds the *http.Client a process uses for its outgoing hop.
// hosts maps listener addresses to process names, resolved at call time
// so servers started after the client are named too.
func (t *tracer) client(proc string, hosts map[string]string, base http.RoundTripper) *http.Client {
	if t == nil {
		return &http.Client{Transport: base, Timeout: httpTimeout}
	}
	return &http.Client{Transport: &tracingRT{t: t, proc: proc, hosts: hosts, base: base}, Timeout: httpTimeout}
}

// tracingRT times each round trip from send to response-body close.
type tracingRT struct {
	t     *tracer
	proc  string
	hosts map[string]string // written only during fleet start, before any traffic
	base  http.RoundTripper
}

func (rt *tracingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() {
		return rt.base.RoundTrip(req)
	}
	id := rt.t.ids.Add(1)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	s := span{
		ID: id, kind: kindRT, Proc: rt.proc, To: rt.hosts[req.URL.Host],
		Trace: req.Header.Get(httpapi.TraceHeader), Path: req.URL.Path, Start: rt.t.now(),
	}
	if parent, ok := req.Context().Value(opIDKey{}).(int64); ok {
		s.Parent = parent
	}
	if req.ContentLength > 0 {
		s.Bytes = req.ContentLength
	}
	resp, err := rt.base.RoundTrip(out)
	if err != nil {
		s.End = rt.t.now()
		rt.t.record(s)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, t: rt.t, s: s}
	return resp, nil
}

// timedBody ends its round-trip span when the caller closes the body.
type timedBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.record(b.s)
	})
	return err
}

// writeSpans writes spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		s := spans[i]
		s.Kind = [...]string{"op", "rt", "handler"}[s.kind]
		if err := enc.Encode(&s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [start, end) time range.
type interval struct{ start, end int64 }

// unionWithin is the length of the union of ivs clipped to [lo, hi]:
// parallel children (the router's invalidation fan-out) overlap, and the
// time they cover together is counted once.
func unionWithin(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		s, e := max(iv.start, lo), min(iv.end, hi)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, curS, curE int64
	for i, iv := range clipped {
		if i == 0 || iv.start > curE {
			total += curE - curS
			curS, curE = iv.start, iv.end
		} else if iv.end > curE {
			curE = iv.end
		}
	}
	return total + curE - curS
}

// spanTree links a traced phase's spans: handlers to the round trip that
// carried their span header, client round trips to their op, and other
// round trips to the handler of the calling process, same trace, whose
// interval contains the call.
type spanTree struct {
	spans    []span
	children map[int64][]int   // span ID -> indices of child spans
	opKind   map[string]string // trace ID -> op kind of the op that started it
	unlinked int               // round trips and handlers whose parent was not found
}

func buildTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: map[int64][]int{}, opKind: map[string]string{}}
	type procTrace struct{ proc, trace string }
	handlers := map[procTrace][]int{}
	ops := map[int64]int{}
	for i := range spans {
		switch spans[i].kind {
		case kindHandler:
			k := procTrace{spans[i].Proc, spans[i].Trace}
			handlers[k] = append(handlers[k], i)
		case kindOp:
			ops[spans[i].ID] = i
		}
	}
	rts := map[int64]bool{}
	for i := range spans {
		s := &spans[i]
		if s.kind != kindRT {
			continue
		}
		rts[s.ID] = true
		if s.Proc == procClient {
			if oi, ok := ops[s.Parent]; ok {
				t.children[s.Parent] = append(t.children[s.Parent], i)
				t.opKind[s.Trace] = spans[oi].Op
			} else {
				t.unlinked++
			}
			continue
		}
		s.Parent = 0
		for _, hi := range handlers[procTrace{s.Proc, s.Trace}] {
			h := &spans[hi]
			if h.Start <= s.Start && s.Start <= h.End {
				s.Parent = h.ID
				t.children[h.ID] = append(t.children[h.ID], i)
				break
			}
		}
		if s.Parent == 0 {
			t.unlinked++
		}
	}
	for i := range spans {
		if s := &spans[i]; s.kind == kindHandler {
			if !rts[s.Parent] {
				t.unlinked++
				continue
			}
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	return t
}

// self is a span's duration minus the part of it its children cover.
func (t *spanTree) self(i int) int64 {
	s := &t.spans[i]
	kids := t.children[s.ID]
	ivs := make([]interval, len(kids))
	for k, ki := range kids {
		ivs[k] = interval{t.spans[ki].Start, t.spans[ki].End}
	}
	return s.dur() - unionWithin(ivs, s.Start, s.End)
}

// layer names the blocking-path layer a span's self time belongs to.
func layer(s *span) string {
	switch s.kind {
	case kindOp:
		return procClient
	case kindRT:
		return "hop." + procClass(s.Proc) + "_" + procClass(s.To)
	}
	return procClass(s.Proc)
}

// procClass folds node0, node1, ... into "node".
func procClass(p string) string {
	if strings.HasPrefix(p, procNode) {
		return procNode
	}
	return p
}

// attribute splits span i's duration over layers: its self time goes to
// its own layer, and the time its children cover is shared among them in
// proportion to their durations (overlapping parallel children split the
// covered interval rather than each claiming all of it). The layer times
// of a span's subtree therefore add up to exactly its duration.
func (t *spanTree) attribute(i int, w float64, acc map[string]float64) {
	s := &t.spans[i]
	kids := t.children[s.ID]
	ivs := make([]interval, len(kids))
	var sum int64
	for k, ki := range kids {
		c := &t.spans[ki]
		ivs[k] = interval{c.Start, c.End}
		sum += min(c.End, s.End) - max(c.Start, s.Start)
	}
	covered := unionWithin(ivs, s.Start, s.End)
	acc[layer(s)] += w * float64(s.dur()-covered)
	if sum <= 0 {
		return
	}
	f := float64(covered) / float64(sum)
	for _, ki := range kids {
		c := &t.spans[ki]
		clip := float64(min(c.End, s.End) - max(c.Start, s.Start))
		if clip <= 0 || c.dur() <= 0 {
			continue
		}
		t.attribute(ki, w*f*clip/float64(c.dur()), acc)
	}
}
