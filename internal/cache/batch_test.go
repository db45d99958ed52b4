package cache

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// batchFixture pre-seals a workload that exercises every invalidation
// class: view-level and template-level queries, a blind query (hidden
// bucket), routed statement-level deletes, an ignorable insert, and a
// blind update. Sealing once and replaying into every cache under test
// keeps trace IDs and keys identical, so decision logs are comparable
// byte for byte.
type batchFixture struct {
	name    string
	newApp  func() *template.App // nil: apps.Toystore
	exps    map[string]template.Exposure
	queries []struct {
		q wire.SealedQuery
		r wire.SealedResult
	}
	updates []wire.SealedUpdate
}

func newBatchFixture(t testing.TB) *batchFixture {
	t.Helper()
	f := newBatchFixtureWith(t, map[string]template.Exposure{
		"Q1": template.ExpTemplate,
		"Q3": template.ExpBlind,
		"U2": template.ExpBlind,
	})
	f.name = "mixed"
	if f.updates[4].TemplateID != "" {
		t.Fatal("U2 not blind")
	}
	return f
}

// stmtBatchFixture is the same workload at statement exposure throughout,
// so routing skips the A = 0 pairs (U1 never touches Q3) and no bucket is
// hidden, plus a forged update with an unknown template ID late in the
// stream, which must drop every live bucket (Q2's last entry and all of
// Q3) in template-ID order.
func stmtBatchFixture(t testing.TB) *batchFixture {
	t.Helper()
	f := newBatchFixtureWith(t, stmtExposures())
	f.name = "stmt"
	forged := wire.SealedUpdate{TraceID: "forged", TemplateID: "U404", Exposure: template.ExpStmt}
	f.updates = append(f.updates[:7:7], append([]wire.SealedUpdate{forged}, f.updates[7:]...)...)
	return f
}

// newBatchFixtureWith seals the fixture workload at the given exposures.
func newBatchFixtureWith(t testing.TB, exps map[string]template.Exposure) *batchFixture {
	t.Helper()
	f := &batchFixture{exps: exps}
	_, codec, app := testStack(t, f.exps, Options{})
	add := func(id string, param sqlparse.Value, rows ...int64) {
		qt := app.Query(id)
		f.queries = append(f.queries, struct {
			q wire.SealedQuery
			r wire.SealedResult
		}{seal(t, codec, qt, param), codec.SealResult(qt, result(rows...))})
	}
	for i := int64(0); i < 4; i++ {
		add("Q1", sqlparse.StringVal(fmt.Sprintf("toy%d", i)), i)
	}
	for i := int64(0); i < 6; i++ {
		add("Q2", sqlparse.IntVal(i), 10+i)
	}
	for i := int64(0); i < 4; i++ {
		add("Q3", sqlparse.StringVal(fmt.Sprintf("152%02d", i)), 7)
	}
	sealU := func(id string, params ...sqlparse.Value) {
		su, err := codec.SealUpdate(app.Update(id), params)
		if err != nil {
			t.Fatal(err)
		}
		f.updates = append(f.updates, su)
	}
	// Deletes that hit stored entries, deletes that miss, one insert
	// mid-stream (blind in the mixed fixture: it drops everything left),
	// then more deletes.
	sealU("U1", sqlparse.IntVal(0))
	sealU("U1", sqlparse.IntVal(1))
	sealU("U1", sqlparse.IntVal(999))
	sealU("U1", sqlparse.IntVal(2))
	sealU("U2", sqlparse.IntVal(1), sqlparse.StringVal("4111"), sqlparse.StringVal("00000"))
	sealU("U1", sqlparse.IntVal(3))
	sealU("U1", sqlparse.IntVal(4))
	sealU("U1", sqlparse.IntVal(998))
	sealU("U1", sqlparse.IntVal(5))
	sealU("U1", sqlparse.IntVal(997))
	return f
}

// cache returns an empty cache over the fixture's application.
func (f *batchFixture) cache(t testing.TB, opts Options) *Cache {
	t.Helper()
	if f.newApp == nil {
		c, _, _ := testStack(t, f.exps, opts)
		return c
	}
	c, _, _ := testStackFor(t, f.newApp(), f.exps, opts)
	return c
}

// populate loads the fixture's entries into a fresh cache.
func (f *batchFixture) populate(t testing.TB) *Cache {
	t.Helper()
	c := f.cache(t, Options{DecisionLog: 4096})
	for _, s := range f.queries {
		c.Store(s.q, s.r, false)
	}
	return c
}

// refCache is the reference the batch walk is checked against: a
// deliberately naive model of invalidation that applies each update on
// its own, in order, deciding every cached entry with the unprepared
// invalidate.Decide over one plain map — no routing index, prepared
// updates, pools or lock striping. It starts from a snapshot of a real
// cache's entries.
type refCache struct {
	app     *template.App
	inv     *invalidate.Invalidator
	buckets map[string]map[string]*Entry // template ID ("" = hidden) -> key -> entry

	decisions []Decision
	skipped   int
	updates   int
}

func newRefCache(c *Cache) *refCache {
	r := &refCache{app: c.app, inv: c.inv, buckets: make(map[string]map[string]*Entry)}
	c.Entries(func(e *Entry) {
		id := e.Query.TemplateID
		if r.buckets[id] == nil {
			r.buckets[id] = make(map[string]*Entry)
		}
		r.buckets[id][e.Query.Key] = e
	})
	return r
}

// apply invalidates for one completed update and returns how many
// entries died.
func (r *refCache) apply(u wire.SealedUpdate) int {
	r.updates++
	dropped := 0
	record := func(qLbl string, class invalidate.Class, n int) {
		r.decisions = append(r.decisions, Decision{Trace: u.TraceID, UpdateTemplate: obs.Tmpl(u.TemplateID), QueryTemplate: qLbl, Class: class.String(), Dropped: n})
		dropped += n
	}
	// Hidden-template entries can only be dropped blindly.
	if n := len(r.buckets[""]); n > 0 {
		delete(r.buckets, "")
		record(obs.BlindTemplate, invalidate.Blind, n)
	}
	ut := r.app.Update(u.TemplateID)
	if ut == nil {
		// A blind or unknown update drops every bucket, in ID order.
		var ids []string
		for id, b := range r.buckets {
			if len(b) > 0 {
				ids = append(ids, id)
			}
		}
		sort.Strings(ids)
		for _, id := range ids {
			n := len(r.buckets[id])
			delete(r.buckets, id)
			record(id, invalidate.Blind, n)
		}
		return dropped
	}
	ui := invalidate.UpdateInstance{Template: ut, Params: u.Params}
	for _, qt := range r.app.Queries {
		if pa, ok := r.inv.Analysis().Pair(ut.ID, qt.ID); ok && pa.AZero {
			r.skipped++ // proved unaffected: no decision to make
			continue
		}
		b := r.buckets[qt.ID]
		if len(b) == 0 {
			continue
		}
		var class invalidate.Class
		n := 0
		for key, e := range b {
			class = invalidate.ClassFor(u.Exposure, e.Query.Exposure)
			view := invalidate.CachedView{Template: qt, Params: e.Query.Params, Result: e.Result.Result}
			if r.inv.Decide(class, ui, view) == invalidate.Invalidate {
				delete(b, key)
				n++
			}
		}
		record(qt.ID, class, n)
	}
	return dropped
}

// dump mirrors Cache.Dump.
func (r *refCache) dump() []string {
	var out []string
	for id, b := range r.buckets {
		for key := range b {
			out = append(out, id+"|"+key)
		}
	}
	sort.Strings(out)
	return out
}

// TestOnUpdateBatchParity is the core equivalence check: applying an
// update stream through OnUpdates, at any batch size, must produce the
// same per-update invalidation counts, the same decision log (order
// included), the same surviving entries after every batch, and the same
// logical stats as the naive one-update-at-a-time reference — while
// batches larger than one make fewer bucket walks than batches of one.
func TestOnUpdateBatchParity(t *testing.T) {
	fixtures := []*batchFixture{newBatchFixture(t), stmtBatchFixture(t), viewBatchFixture(t)}
	singleWalks := make([]int, len(fixtures))
	for _, size := range []int{1, 2, 4, 32} {
		t.Run(fmt.Sprintf("size=%d", size), func(t *testing.T) {
			for fi, f := range fixtures {
				walks := checkBatchParity(t, f, size)
				if size == 1 {
					singleWalks[fi] = walks
				} else if walks >= singleWalks[fi] {
					t.Errorf("%s: batch size %d amortized nothing: %d walks vs %d at size 1",
						f.name, size, walks, singleWalks[fi])
				}
			}
		})
	}
}

// checkBatchParity replays f's updates in batches of size against a
// fresh cache and the reference, and returns the cache's bucket walks.
func checkBatchParity(t *testing.T, f *batchFixture, size int) int {
	t.Helper()
	c := f.populate(t)
	ref := newRefCache(c)
	var counts, refCounts []int
	invalidations := 0
	for lo := 0; lo < len(f.updates); lo += size {
		hi := lo + size
		if hi > len(f.updates) {
			hi = len(f.updates)
		}
		counts = append(counts, c.OnUpdates(f.updates[lo:hi])...)
		for _, u := range f.updates[lo:hi] {
			n := ref.apply(u)
			refCounts = append(refCounts, n)
			invalidations += n
		}
		if got, want := c.Dump(), ref.dump(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: after update %d: surviving entries = %v, reference = %v", f.name, hi, got, want)
		}
		auditIndex(t, c)
	}
	if invalidations == 0 || len(ref.decisions) == 0 {
		t.Fatalf("%s: degenerate fixture: %d invalidations, %d decisions", f.name, invalidations, len(ref.decisions))
	}
	if !reflect.DeepEqual(counts, refCounts) {
		t.Errorf("%s: per-update counts = %v, reference = %v", f.name, counts, refCounts)
	}
	if got := c.Decisions(); !reflect.DeepEqual(got, ref.decisions) {
		t.Errorf("%s: decision log diverged:\nbatch: %+v\nref:   %+v", f.name, got, ref.decisions)
	}
	st := c.Stats()
	if st.Invalidations != invalidations ||
		st.BucketsVisited != len(ref.decisions) ||
		st.BucketsSkipped != ref.skipped ||
		st.UpdatesSeen != ref.updates {
		t.Errorf("%s: logical stats diverged: batch %+v, reference invalidations=%d visited=%d skipped=%d updates=%d",
			f.name, st, invalidations, len(ref.decisions), ref.skipped, ref.updates)
	}
	return st.BucketWalks
}

// TestOnUpdateBatchEmptyAndSingleton pins the degenerate shapes: an empty
// batch is a no-op, and a singleton batch equals the reference applying
// that one update.
func TestOnUpdateBatchEmptyAndSingleton(t *testing.T) {
	f := newBatchFixture(t)
	c := f.populate(t)
	if counts := c.OnUpdates(nil); len(counts) != 0 {
		t.Errorf("empty batch returned counts %v", counts)
	}
	if st := c.Stats(); st.UpdatesSeen != 0 || st.BucketWalks != 0 {
		t.Errorf("empty batch did work: %+v", st)
	}
	ref := newRefCache(c)
	counts := c.OnUpdates(f.updates[:1])
	if want := ref.apply(f.updates[0]); len(counts) != 1 || counts[0] != want {
		t.Errorf("singleton batch counts %v, reference dropped %d", counts, want)
	}
}

// auditLRU checks the lock-protocol invariant at a quiescent point: on a
// bounded cache that never evicted, bucket membership and list membership
// must coincide exactly — a longer list means a dead entry was linked
// (the store/invalidation window), a shorter one a live entry was lost.
func auditLRU(t *testing.T, c *Cache) {
	t.Helper()
	if st := c.Stats(); st.Evictions != 0 {
		t.Fatalf("audit void: %d evictions despite oversized capacity", st.Evictions)
	}
	c.lruMu.Lock()
	lruLen := c.lru.len
	c.lruMu.Unlock()
	if lruLen != c.Len() {
		t.Errorf("LRU holds %d entries, cache holds %d (dead entry linked, or live entry lost)", lruLen, c.Len())
	}
	if g := c.entries.Value(); g != int64(c.Len()) {
		t.Errorf("entries gauge = %d, Len() = %d", g, c.Len())
	}
}

// TestDropAllBucketsStoreRace regression-tests Store racing blind
// invalidation. Pre-fix, the blind walk released each shard lock
// mid-iteration to unlink LRU entries, and Store linked its entry into
// the LRU only after releasing the shard lock — so a blind pass landing
// between a store's bucket insert and its LRU link removed the entry
// from the bucket (a no-op unlink: the entry was not linked yet) and the
// late link then pushed a dead entry into the list, permanently. Traffic
// concentrates on one template (one shard) so the blocked invalidator
// acquires the lock the instant a store releases it, hitting the window
// constantly. Run under -race (CI does) this also covers the map- and
// list-access races of the old protocol.
func TestDropAllBucketsStoreRace(t *testing.T) {
	f := newBatchFixture(t)
	// Capacity far above the working set: the LRU machinery is live but
	// nothing evicts, so the audit is exact.
	c, _, _ := testStack(t, f.exps, Options{Capacity: 4096})
	blind := f.updates[4] // the sealed blind U2

	// Only Q2 entries: every store and every drop contends on Q2's shard.
	var q2 []struct {
		q wire.SealedQuery
		r wire.SealedResult
	}
	for _, s := range f.queries {
		if s.q.TemplateID == "Q2" {
			q2 = append(q2, s)
		}
	}

	var wg sync.WaitGroup
	const iters = 2000
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := q2[(i*7+w*13)%len(q2)]
				c.Store(s.q, s.r, false)
			}
		}()
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				onUpdate(c, blind)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/8; i++ {
			c.OnUpdates(f.updates)
		}
	}()
	wg.Wait()
	auditLRU(t, c)
}

// TestLookupInvalidateLRURace regression-tests the lookup half of the
// protocol: Lookup used to touch the LRU after releasing the shard lock,
// ordering the recency bump against concurrent invalidation by nothing
// but luck. Touching under the shard lock (with the inLRU guard covering
// the eviction window) makes the bump and the removal serialize; the
// audit catches any divergence the old ordering produced.
func TestLookupInvalidateLRURace(t *testing.T) {
	f := newBatchFixture(t)
	c, _, _ := testStack(t, f.exps, Options{Capacity: 4096})
	blind := f.updates[4]

	var wg sync.WaitGroup
	const iters = 2000
	for w := 0; w < 2; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s := f.queries[(i*11+w*17)%len(f.queries)]
				c.Store(s.q, s.r, false)
			}
		}()
	}
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Lookup(f.queries[(i*7+w*13)%len(f.queries)].q)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if i%2 == 0 {
				onUpdate(c, blind)
			} else {
				onUpdate(c, f.updates[i%len(f.updates)])
			}
		}
	}()
	wg.Wait()
	auditLRU(t, c)
}

// TestOnUpdateBatchAllocBudget pins the allocation ceiling of the batch
// invalidation pass: a batch against a populated, surviving cache may
// allocate the returned counts slice plus a constant amount of prepared
// state per update — never anything per cached entry. The budget is a
// small constant factor above the measured cost, so pool warm-up noise
// passes while a per-entry regression (with 64 entries per bucket) fails
// by an order of magnitude.
func TestOnUpdateBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; allocation counts are meaningless")
	}
	for _, size := range []int{1, 8, 32} {
		c, codec, app := testStack(t, stmtExposures(), Options{})
		for i := int64(0); i < 64; i++ {
			qt := app.Query("Q2")
			c.Store(seal(t, codec, qt, sqlparse.IntVal(i)), codec.SealResult(qt, result(i)), false)
		}
		us := make([]wire.SealedUpdate, size)
		for i := range us {
			su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(int64(1_000_000 + i))})
			if err != nil {
				t.Fatal(err)
			}
			us[i] = su
		}
		c.OnUpdates(us) // warm pools and instrument caches
		allocs := testing.AllocsPerRun(50, func() { c.OnUpdates(us) })
		budget := float64(4*size + 8)
		if allocs > budget {
			t.Errorf("size=%d: OnUpdates allocated %.1f/op, budget %.0f", size, allocs, budget)
		}
		if c.Len() == 0 {
			t.Fatalf("size=%d: entries did not survive; budget measured empty buckets", size)
		}
	}
}

// BenchmarkOnUpdateBatch measures the amortization win: one OnUpdates
// pass over a batch of n updates (compare ns/op against n times the
// size=1 result), against a populated cache
// whose entries survive (statement inspection keeps them), so every
// iteration walks the same buckets.
func BenchmarkOnUpdateBatch(b *testing.B) {
	for _, size := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			c, codec, app := testStack(b, stmtExposures(), Options{})
			for i := int64(0); i < 64; i++ {
				qt := app.Query("Q2")
				c.Store(seal(b, codec, qt, sqlparse.IntVal(i)), codec.SealResult(qt, result(i)), false)
			}
			us := make([]wire.SealedUpdate, size)
			for i := range us {
				su, err := codec.SealUpdate(app.Update("U1"), []sqlparse.Value{sqlparse.IntVal(int64(1_000_000 + i))})
				if err != nil {
					b.Fatal(err)
				}
				us[i] = su
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.OnUpdates(us)
			}
			if c.Len() == 0 {
				b.Fatal("entries did not survive; benchmark walked empty buckets")
			}
		})
	}
}
