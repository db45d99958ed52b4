package leakage

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dssp/internal/engine"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/wire"
)

// fakeClock is a hand-set obs.Clock.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

// auditTrace is a hand-built trace covering every exposure shape the
// observer distinguishes, with its expected report written out by hand.
func auditTrace(t *testing.T) (Report, Report) {
	t.Helper()
	clock := &fakeClock{}
	o := NewObserver("node", clock)

	// stmt exposure: template, parameter and key readable; opaque sealed.
	stmtQ := wire.SealedQuery{TemplateID: "Q2", Params: []sqlparse.Value{sqlparse.IntVal(5)}, Key: "Q2\x005", Opaque: make([]byte, 10)}
	// blind exposure: only a keyed token and the opaque payload.
	blindQ := wire.SealedQuery{Key: "tok-abc", Opaque: make([]byte, 12)}
	// template exposure: template readable, key a token.
	tmplQ := wire.SealedQuery{TemplateID: "Q1", Key: "Q1\x00tokxyz", Opaque: make([]byte, 8)}

	o.ObserveQuery(stmtQ, false)
	o.ObserveQuery(stmtQ, true)
	o.ObserveQuery(blindQ, false)
	o.ObserveQuery(tmplQ, true)
	view := wire.SealedResult{Result: &engine.Result{Columns: []string{"qty"}, Rows: [][]sqlparse.Value{{sqlparse.IntVal(25)}}}}
	o.ObserveResult(stmtQ, wire.SealedResult{Cipher: make([]byte, 16)})
	o.ObserveResult(stmtQ, view)

	clock.now = 1 * time.Millisecond
	named := wire.SealedUpdate{TemplateID: "U1", Params: []sqlparse.Value{sqlparse.IntVal(5)}, Opaque: make([]byte, 6), TraceID: "t1"}
	o.ObserveUpdate(named)
	clock.now = 2 * time.Millisecond
	blindU := wire.SealedUpdate{Opaque: make([]byte, 5), TraceID: "t2"}
	o.ObserveUpdate(blindU)
	clock.now = 5 * time.Millisecond
	o.ObserveInvalidation(named, 2) // correlated: named template, entries died
	clock.now = 10 * time.Millisecond
	o.ObserveInvalidation(blindU, 3) // not correlated: the template is hidden
	// An invalidation for an update this vantage point never saw (fan-out
	// from elsewhere) counts, but yields no delay; dropping nothing, it
	// correlates nothing either.
	o.ObserveInvalidation(wire.SealedUpdate{TemplateID: "U1", TraceID: "elsewhere"}, 0)

	plain := int64(2+1) + int64(2+1) + 0 + 2 + // query templates and params
		int64(view.Size()) + // view-exposure rows
		2 + 1 // the named update's template and param
	sealed := int64(10+10) + (12 + 7) + (8 + 9) + // opaque payloads; tokens below stmt exposure
		16 + // the sealed result
		6 + 5 // update payloads
	want := Report{
		Vantage:          "node",
		Queries:          4,
		Hits:             2,
		Updates:          2,
		DistinctKeys:     3,
		KeyAccesses:      4,
		MaxKeyAccesses:   2,
		VisibleTemplates: 3,
		// Blind queries aggregate under "(blind)"; blind updates are not
		// tallied at all, and no parameter of a hidden statement shows.
		TemplateFreq:            map[string]int64{"Q2": 2, "Q1": 1, obs.BlindTemplate: 1, "U1": 1},
		VisibleParams:           3,
		PlaintextBytes:          plain,
		SealedBytes:             sealed,
		PlaintextFrac:           float64(plain) / float64(plain+sealed),
		Invalidations:           3,
		InvalidatedEntries:      5,
		CorrelatedInvalidations: 1,
		MeanInvalidationDelay:   6 * time.Millisecond, // (4ms + 8ms) / 2
	}
	return o.Report(), want
}

func TestReportOnHandBuiltTrace(t *testing.T) {
	got, want := auditTrace(t)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report:\n got: %+v\nwant: %+v", got, want)
	}
	if top := got.TopTemplates(3); !reflect.DeepEqual(top, []string{"Q2", "(blind)", "Q1"}) {
		t.Errorf("TopTemplates(3) = %v, want frequency order with ties by name", top)
	}
	if all := got.TopTemplates(10); len(all) != 4 {
		t.Errorf("TopTemplates(10) = %v, want all 4 labels", all)
	}
}

// TestPendingCapBoundsTimingWindow: update arrival times are remembered
// for at most pendingCap outstanding updates (and never for untraced
// ones); later updates still count, but their invalidations yield no
// delay sample.
func TestPendingCapBoundsTimingWindow(t *testing.T) {
	clock := &fakeClock{}
	o := NewObserver("node", clock)
	const extra = 10
	o.ObserveUpdate(wire.SealedUpdate{TemplateID: "U1"}) // untraced
	for i := 0; i < pendingCap+extra; i++ {
		o.ObserveUpdate(wire.SealedUpdate{TraceID: fmt.Sprint("t", i)})
	}
	if len(o.pending) != pendingCap {
		t.Fatalf("pending = %d, want the cap %d", len(o.pending), pendingCap)
	}
	clock.now = time.Second
	for i := 0; i < pendingCap+extra; i++ {
		o.ObserveInvalidation(wire.SealedUpdate{TraceID: fmt.Sprint("t", i)}, 0)
	}
	r := o.Report()
	if r.Updates != pendingCap+extra+1 || r.Invalidations != pendingCap+extra {
		t.Errorf("updates %d, invalidations %d: every event must count", r.Updates, r.Invalidations)
	}
	if o.delayCount != pendingCap || r.MeanInvalidationDelay != time.Second {
		t.Errorf("delay samples %d (mean %v), want %d at 1s", o.delayCount, r.MeanInvalidationDelay, pendingCap)
	}
	if len(o.pending) != 0 {
		t.Errorf("%d arrival times left pending after their invalidations", len(o.pending))
	}
}

// TestMergeFoldsVantagePoints: counts add, the hottest key is the
// maximum, histograms union, and the fractions and mean delay are
// recomputed over the fleet — the delay as the mean of the vantage
// points' means.
func TestMergeFoldsVantagePoints(t *testing.T) {
	a, _ := auditTrace(t)
	clock := &fakeClock{}
	o := NewObserver("router", clock)
	q := wire.SealedQuery{TemplateID: "Q3", Key: "k", Opaque: make([]byte, 4)}
	for i := 0; i < 5; i++ {
		o.ObserveQuery(q, false)
	}
	u := wire.SealedUpdate{TemplateID: "U1", TraceID: "r1"}
	o.ObserveUpdate(u)
	clock.now = 2 * time.Millisecond
	o.ObserveInvalidation(u, 1)
	b := o.Report()

	m := Merge("fleet", a, b)
	if m.Vantage != "fleet" {
		t.Errorf("vantage = %q", m.Vantage)
	}
	if m.Queries != a.Queries+b.Queries || m.Hits != a.Hits || m.Updates != a.Updates+b.Updates {
		t.Errorf("counts not summed: %+v", m)
	}
	if m.DistinctKeys != a.DistinctKeys+b.DistinctKeys || m.KeyAccesses != a.KeyAccesses+b.KeyAccesses {
		t.Errorf("key counts not summed: %+v", m)
	}
	if m.MaxKeyAccesses != 5 {
		t.Errorf("MaxKeyAccesses = %d, want the hottest vantage point's 5", m.MaxKeyAccesses)
	}
	wantFreq := map[string]int64{"Q2": 2, "Q1": 1, "Q3": 5, obs.BlindTemplate: 1, "U1": 2}
	if !reflect.DeepEqual(m.TemplateFreq, wantFreq) || m.VisibleTemplates != 4 {
		t.Errorf("histogram = %v (%d visible), want %v (4 visible)", m.TemplateFreq, m.VisibleTemplates, wantFreq)
	}
	if m.PlaintextBytes != a.PlaintextBytes+b.PlaintextBytes || m.SealedBytes != a.SealedBytes+b.SealedBytes {
		t.Errorf("bytes not summed: %+v", m)
	}
	if want := float64(m.PlaintextBytes) / float64(m.PlaintextBytes+m.SealedBytes); m.PlaintextFrac != want {
		t.Errorf("PlaintextFrac = %v, want %v", m.PlaintextFrac, want)
	}
	if m.Invalidations != 4 || m.InvalidatedEntries != 6 || m.CorrelatedInvalidations != 2 {
		t.Errorf("invalidation counts = %d/%d/%d, want 4/6/2",
			m.Invalidations, m.InvalidatedEntries, m.CorrelatedInvalidations)
	}
	if m.MeanInvalidationDelay != 4*time.Millisecond { // (6ms + 2ms) / 2
		t.Errorf("MeanInvalidationDelay = %v, want 4ms", m.MeanInvalidationDelay)
	}
	if empty := Merge("none"); empty.PlaintextFrac != 0 || empty.TemplateFreq != nil {
		t.Errorf("empty merge = %+v", empty)
	}
}
