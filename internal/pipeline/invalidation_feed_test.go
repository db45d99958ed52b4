package pipeline_test

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/dssp"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/obs"
	"dssp/internal/pipeline"
	"dssp/internal/sqlparse"
	"dssp/internal/wire"
)

// invalidationLog is a LeakageObserver that records only the
// update→invalidation feed, in arrival order.
type invalidationLog struct {
	mu   sync.Mutex
	seen []string
	n    []int
}

func (l *invalidationLog) ObserveQuery(wire.SealedQuery, bool)               {}
func (l *invalidationLog) ObserveResult(wire.SealedQuery, wire.SealedResult) {}
func (l *invalidationLog) ObserveUpdate(wire.SealedUpdate)                   {}
func (l *invalidationLog) ObserveInvalidation(su wire.SealedUpdate, n int) {
	l.mu.Lock()
	l.seen = append(l.seen, su.TraceID)
	l.n = append(l.n, n)
	l.mu.Unlock()
}

// monitorFixture is a warmed toystore node cache behind a pipeline that
// has no transport traffic of its own: updates arrive through
// MonitorUpdate, as fan-out from elsewhere does.
type monitorFixture struct {
	pipe *pipeline.Pipeline
	node *dssp.Node
	reg  *obs.Registry
	log  *invalidationLog
}

// newMonitorFixture stores every sealed query (with a one-row result)
// into a fresh node cache. A nil after means inline invalidation.
func newMonitorFixture(codec *wire.Codec, queries []wire.SealedQuery, after func(time.Duration, func())) *monitorFixture {
	app := apps.Toystore()
	f := &monitorFixture{
		node: dssp.NewNode(app, core.Analyze(app, core.DefaultOptions()), cache.Options{}),
		reg:  obs.NewRegistry(),
		log:  &invalidationLog{},
	}
	row := &engine.Result{Columns: []string{"v"}, Rows: [][]sqlparse.Value{{sqlparse.IntVal(1)}}}
	for _, sq := range queries {
		f.node.Cache.Store(sq, codec.SealResult(app.Query(sq.TemplateID), row), false)
	}
	opts := pipeline.Options{Leakage: f.log}
	if after != nil {
		opts.MonitorInterval = time.Second
		opts.After = after
	}
	f.pipe = pipeline.New(f.node.Cache, nil, obs.NewTracer(f.reg, obs.WallClock()), opts)
	return f
}

func (f *monitorFixture) batchSize() *obs.Metric {
	return f.reg.Snapshot().Find(obs.MCacheBatchSize, nil)
}

// TestInlineAndBatchedInvalidationFeedIdentically: the leakage audit's
// update→invalidation feed must not depend on whether invalidation runs
// inline or at a monitoring-interval flush — the same sealed updates
// against the same cache contents report the same per-update counts, in
// the same order. It also pins the batch-size histogram's meaning: one
// observation per interval flush, none for inline invalidation.
func TestInlineAndBatchedInvalidationFeedIdentically(t *testing.T) {
	app := apps.Toystore()
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), nil)
	var queries []wire.SealedQuery
	for _, id := range []int64{1, 2, 3, 5} {
		sq, err := codec.SealQuery(app.Query("Q2"), []sqlparse.Value{sqlparse.IntVal(id)})
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, sq)
	}
	var updates []wire.SealedUpdate
	for _, id := range []int64{2, 999, 5} {
		su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(id)})
		if err != nil {
			t.Fatal(err)
		}
		updates = append(updates, su)
	}

	inline := newMonitorFixture(codec, queries, nil)
	var pending []func()
	batched := newMonitorFixture(codec, queries, func(_ time.Duration, fn func()) { pending = append(pending, fn) })
	for _, f := range []*monitorFixture{inline, batched} {
		if m := f.batchSize(); m == nil || m.Count != 0 {
			t.Fatalf("batch-size histogram before any update = %+v, want registered at count 0", m)
		}
	}

	var inlineCounts, batchedCounts []int
	for _, su := range updates {
		inline.pipe.MonitorUpdate(su, 0, func(n int) { inlineCounts = append(inlineCounts, n) })
		batched.pipe.MonitorUpdate(su, 0, func(n int) { batchedCounts = append(batchedCounts, n) })
	}
	if m := inline.batchSize(); m.Count != 0 {
		t.Errorf("inline invalidation observed %d batch sizes, want 0", m.Count)
	}
	if len(batchedCounts) != 0 || batched.batchSize().Count != 0 {
		t.Fatalf("batched updates resolved before the flush: %v", batchedCounts)
	}
	if len(pending) != 1 {
		t.Fatalf("timers armed = %d, want 1", len(pending))
	}
	pending[0]()
	if m := batched.batchSize(); m.Count != 1 || m.SumNanos != int64(len(updates))*int64(time.Microsecond) {
		t.Errorf("after one flush of %d updates the batch-size histogram = %+v, want one observation of %d",
			len(updates), m, len(updates))
	}

	if want := []int{1, 0, 1}; !reflect.DeepEqual(inlineCounts, want) {
		t.Fatalf("inline counts = %v, want %v", inlineCounts, want)
	}
	if !reflect.DeepEqual(batchedCounts, inlineCounts) {
		t.Errorf("batched counts %v, inline %v", batchedCounts, inlineCounts)
	}
	if !reflect.DeepEqual(inline.log.n, inlineCounts) {
		t.Errorf("inline leakage feed %v, callbacks %v", inline.log.n, inlineCounts)
	}
	if !reflect.DeepEqual(batched.log.n, inline.log.n) || !reflect.DeepEqual(batched.log.seen, inline.log.seen) {
		t.Errorf("leakage feed diverged: batched %v %v, inline %v %v",
			batched.log.seen, batched.log.n, inline.log.seen, inline.log.n)
	}
	if got, want := batched.node.Cache.Dump(), inline.node.Cache.Dump(); !reflect.DeepEqual(got, want) {
		t.Errorf("surviving entries: batched %v, inline %v", got, want)
	}
}
