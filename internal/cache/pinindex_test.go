package cache

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// viewToystore is the toystore with the templates the pinned index has to
// get right: a self-join of toys (no pin), a two-parameter filter whose
// first parameter is pinned, an insertion into toys, a
// modification whose SET rewrites the name its WHERE fixes, a
// range-predicate deletion (no pin), and a modification shaped like the
// bookstore's stock update (SET one column WHERE key = ?).
func viewToystore() *template.App {
	app := apps.Toystore()
	s := app.Schema
	app.Queries = append(app.Queries,
		template.MustNew("Q4", s, "SELECT t1.qty FROM toys AS t1, toys AS t2 WHERE t1.toy_id=? AND t2.toy_name=?"),
		template.MustNew("Q5", s, "SELECT qty FROM toys WHERE toy_id=? AND qty>?"),
	)
	app.Updates = append(app.Updates,
		template.MustNew("U3", s, "INSERT INTO toys (toy_id, toy_name, qty) VALUES (?, ?, ?)"),
		template.MustNew("U4", s, "UPDATE toys SET toy_name=? WHERE toy_id=? AND toy_name=?"),
		template.MustNew("U5", s, "DELETE FROM toys WHERE qty<?"),
		template.MustNew("U6", s, "UPDATE toys SET qty=? WHERE toy_id=?"),
	)
	return app
}

// viewExposures exposes every query's result and every update's
// statement.
func viewExposures(app *template.App) map[string]template.Exposure {
	m := make(map[string]template.Exposure)
	for _, q := range app.Queries {
		m[q.ID] = template.ExpView
	}
	for _, u := range app.Updates {
		m[u.ID] = template.ExpStmt
	}
	return m
}

// viewBatchFixture seals a view-exposure workload whose updates take the
// pinned path and every fallback the index must leave to a full walk:
// INT 5 beside FLOAT 5.0 parameters, a NaN parameter (Equal to every
// number), NULL parameters, forged entries with short and long
// parameter lists,
// an UPDATE whose SET rewrites the pinned column, a range DELETE, INSERTs
// with a value and with NULL in the pinned column, FLOAT and NULL pinned
// update values, and a self-join template no update can pin.
func viewBatchFixture(t testing.TB) *batchFixture {
	t.Helper()
	f := &batchFixture{name: "view", newApp: viewToystore, exps: viewExposures(viewToystore())}
	_, codec, app := testStackFor(t, f.newApp(), f.exps, Options{})
	i, fl, str, null := sqlparse.IntVal, sqlparse.FloatVal, sqlparse.StringVal, sqlparse.Null()
	add := func(id string, params []sqlparse.Value, rows ...int64) {
		qt := app.Query(id)
		f.queries = append(f.queries, struct {
			q wire.SealedQuery
			r wire.SealedResult
		}{seal(t, codec, qt, params...), codec.SealResult(qt, result(rows...))})
	}
	// Q1 selects toy_id by name; its results hold the toys' IDs.
	add("Q1", []sqlparse.Value{str("bear")}, 1, 3)
	add("Q1", []sqlparse.Value{str("truck")}, 2)
	add("Q1", []sqlparse.Value{str("kite")}, 5)
	add("Q1", []sqlparse.Value{str("doll")}, 7)
	add("Q1", []sqlparse.Value{null}, 9)
	// Q2 selects qty by toy_id; its results hold quantities.
	for id := int64(1); id <= 6; id++ {
		add("Q2", []sqlparse.Value{i(id)}, 10+id)
	}
	add("Q2", []sqlparse.Value{fl(5)}, 15)
	add("Q2", []sqlparse.Value{fl(math.NaN())}, 20)
	add("Q2", []sqlparse.Value{null}, 21)
	add("Q2", nil, 22) // forged: one parameter short
	add("Q3", []sqlparse.Value{str("15201")}, 1)
	add("Q3", []sqlparse.Value{str("15202")}, 2)
	add("Q3", []sqlparse.Value{str("15203")}, 3)
	add("Q4", []sqlparse.Value{i(1), str("bear")}, 10)
	add("Q4", []sqlparse.Value{i(2), str("truck")}, 3)
	add("Q5", []sqlparse.Value{i(2), i(0)}, 12)
	add("Q5", []sqlparse.Value{i(4), i(0)}, 14)
	add("Q5", []sqlparse.Value{i(99)}, 5)             // forged: keyed parameter present, second missing
	add("Q5", []sqlparse.Value{i(98), i(0), i(7)}, 6) // forged: one parameter too many

	sealU := func(id string, params ...sqlparse.Value) {
		su, err := codec.SealUpdate(app.Update(id), params)
		if err != nil {
			t.Fatal(err)
		}
		f.updates = append(f.updates, su)
	}
	sealU("U1", i(3))                                // pinned: Q2(3), the NaN and short entries
	sealU("U6", i(99), i(4))                         // stock-update shape, pinned on toy_id
	sealU("U4", str("kite"), i(1), str("bear"))      // pinned on bear and kite
	sealU("U3", i(10), str("doll"), i(3))            // insertion pinned on doll
	sealU("U3", i(11), null, i(3))                   // NULL pinned value: full walk
	sealU("U1", fl(5))                               // FLOAT pinned value: full walk
	sealU("U5", i(12))                               // range DELETE: no pin
	sealU("U2", i(1), str("4111"), str("15202"))     // insertion into credit_card
	sealU("U1", null)                                // NULL pinned value
	sealU("U6", i(1), i(6))                          // pinned, drops Q2(6)
	sealU("U4", str("truck"), i(2), str("truck"))    // SET leaves the pinned value as is
	sealU("U1", i(2))                                // pinned
	sealU("U6", fl(math.NaN()), i(1))                // NaN in SET: still pinned on toy_id
	sealU("U3", i(12), str("truck"), fl(math.NaN())) // pinned on truck
	return f
}

// auditIndex checks every bucket's parameter index against its entries:
// each entry sits exactly once per indexed parameter, under its key or
// in loose, no group is empty, and only statement- or view-exposed
// buckets of pinned templates are indexed.
func auditIndex(t *testing.T, c *Cache) {
	t.Helper()
	for _, s := range c.shards {
		s.mu.Lock()
		for id, b := range s.buckets {
			pinned := c.inv.Router().PinnedParams(id)
			for _, e := range b.entries {
				if len(b.index) > 0 && e.Query.Exposure < template.ExpStmt {
					t.Errorf("%s: template-exposed entry in an indexed bucket", id)
				}
				if len(b.index) == 0 && e.Query.Exposure >= template.ExpStmt && len(pinned) > 0 && id != "" {
					t.Errorf("%s: pinned statement-exposed bucket carries no index", id)
				}
			}
			for _, ix := range b.index {
				want := make(map[invalidate.PinKey]map[*Entry]bool)
				wantLoose := make(map[*Entry]bool)
				for _, e := range b.entries {
					if k, ok := invalidate.ParamKey(b.numParams, e.Query.Params, ix.param); ok {
						if want[k] == nil {
							want[k] = make(map[*Entry]bool)
						}
						want[k][e] = true
					} else {
						wantLoose[e] = true
					}
				}
				got := make(map[invalidate.PinKey]map[*Entry]bool)
				for k, es := range ix.byKey {
					if len(es) == 0 {
						t.Errorf("%s param %d: empty group left behind", id, ix.param)
					}
					got[k] = setOf(t, id, es)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s param %d: keyed index diverged from entries: %d groups vs %d", id, ix.param, len(got), len(want))
				}
				if gotLoose := setOf(t, id, ix.loose); !reflect.DeepEqual(gotLoose, wantLoose) {
					t.Errorf("%s param %d: loose set holds %d entries, want %d", id, ix.param, len(gotLoose), len(wantLoose))
				}
			}
		}
		s.mu.Unlock()
	}
}

// setOf converts an index slice to a set, failing on duplicates.
func setOf(t *testing.T, id string, es []*Entry) map[*Entry]bool {
	m := make(map[*Entry]bool, len(es))
	for _, e := range es {
		if m[e] {
			t.Errorf("%s: entry indexed twice", id)
		}
		m[e] = true
	}
	return m
}

// TestPinnedIndexChurn runs the view fixture on a bounded cache that
// evicts, re-storing entries and moving buckets out and back in
// (DropBuckets, ImportBuckets) between batches. After every step the
// index must match the entries, and every batch must decide exactly as
// the naive reference does from the same starting contents.
func TestPinnedIndexChurn(t *testing.T) {
	f := viewBatchFixture(t)
	c := f.cache(t, Options{Capacity: 12, DecisionLog: 4096})
	for _, s := range f.queries {
		c.Store(s.q, s.r, false)
	}
	auditIndex(t, c)
	invalidations := 0
	for lo := 0; lo < len(f.updates); lo += 2 {
		for k := 0; k < 5; k++ {
			s := f.queries[(lo*3+k)%len(f.queries)]
			c.Store(s.q, s.r, false)
		}
		if lo%4 == 2 {
			moved := c.ExportBuckets([]string{"Q1", "Q2"})
			c.DropBuckets([]string{"Q1", "Q2"})
			auditIndex(t, c)
			c.ImportBuckets(moved)
		}
		auditIndex(t, c)

		batch := f.updates[lo:min(lo+2, len(f.updates))]
		ref := newRefCache(c)
		logged := len(c.Decisions())
		counts := c.OnUpdates(batch)
		var refCounts []int
		for _, u := range batch {
			n := ref.apply(u)
			refCounts = append(refCounts, n)
			invalidations += n
		}
		if !reflect.DeepEqual(counts, refCounts) {
			t.Errorf("batch at %d: counts %v, reference %v", lo, counts, refCounts)
		}
		if got := c.Decisions()[logged:]; !reflect.DeepEqual(got, ref.decisions) {
			t.Errorf("batch at %d: decisions diverged:\ncache: %+v\nref:   %+v", lo, got, ref.decisions)
		}
		if got, want := c.Dump(), ref.dump(); !reflect.DeepEqual(got, want) {
			t.Errorf("batch at %d: surviving entries %v, reference %v", lo, got, want)
		}
		auditIndex(t, c)
	}
	if st := c.Stats(); st.Evictions == 0 || invalidations == 0 {
		t.Fatalf("degenerate churn: %d evictions, %d invalidations", st.Evictions, invalidations)
	}
}

// TestEntriesInspectedPinned pins the saving as a count: a stock-update
// shaped modification (SET qty WHERE toy_id = ?) against a 1,000-entry
// view bucket keyed by toy_id inspects the one entry holding its key,
// where a FLOAT key — which has no exact key — walks the whole bucket.
func TestEntriesInspectedPinned(t *testing.T) {
	app := viewToystore()
	c, codec, _ := testStackFor(t, app, viewExposures(app), Options{})
	q := app.Query("Q2")
	for id := int64(0); id < 1000; id++ {
		c.Store(seal(t, codec, q, sqlparse.IntVal(id)), codec.SealResult(q, result(10+id%7)), false)
	}
	update := func(id sqlparse.Value) wire.SealedUpdate {
		su, err := codec.SealUpdate(app.Update("U6"), []sqlparse.Value{sqlparse.IntVal(99), id})
		if err != nil {
			t.Fatal(err)
		}
		return su
	}
	if n := onUpdate(c, update(sqlparse.IntVal(500))); n != 1 {
		t.Errorf("pinned update invalidated %d entries, want 1", n)
	}
	if got := c.Stats().EntriesInspected; got != 1 {
		t.Errorf("pinned update inspected %d entries, want 1", got)
	}
	if n := onUpdate(c, update(sqlparse.FloatVal(700))); n != 1 {
		t.Errorf("FLOAT update invalidated %d entries, want 1", n)
	}
	if got := c.Stats().EntriesInspected; got != 1+999 {
		t.Errorf("after the FLOAT update: %d entries inspected, want %d", got, 1+999)
	}
	if got := c.Obs().Counter(obs.MCacheEntriesInspected).Value(); got != 1000 {
		t.Errorf("%s = %d, want 1000", obs.MCacheEntriesInspected, got)
	}
}

// BenchmarkOnUpdateViewBucket measures one stock-update shaped
// modification against a 1,000-entry view bucket it pins. The key
// matches no entry, so every iteration sees the same bucket.
func BenchmarkOnUpdateViewBucket(b *testing.B) {
	app := viewToystore()
	c, codec, _ := testStackFor(b, app, viewExposures(app), Options{})
	q := app.Query("Q2")
	for id := int64(0); id < 1000; id++ {
		c.Store(seal(b, codec, q, sqlparse.IntVal(id)), codec.SealResult(q, result(10+id%7)), false)
	}
	su, err := codec.SealUpdate(app.Update("U6"), []sqlparse.Value{sqlparse.IntVal(99), sqlparse.IntVal(1_000_000)})
	if err != nil {
		b.Fatal(err)
	}
	us := []wire.SealedUpdate{su}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.OnUpdates(us)
	}
	b.StopTimer()
	if c.Len() != 1000 {
		b.Fatalf("bucket changed: %d entries", c.Len())
	}
	if st := c.Stats(); st.BucketsVisited == 0 {
		b.Fatal("update never reached the bucket")
	}
}

// TestPinnedWalkMatchesNaiveOnApps replays a seeded session of each
// benchmark application with every query at view exposure, so every
// pinned pair takes the indexed path, and checks each page's batch of
// updates against the naive reference: per-update counts, the decision
// log and the surviving entries. The index must also have skipped work,
// or the comparison says nothing about it.
func TestPinnedWalkMatchesNaiveOnApps(t *testing.T) {
	for _, b := range []workload.Benchmark{apps.NewBookstore(), apps.NewBBoard(), apps.NewAuction()} {
		t.Run(b.Name(), func(t *testing.T) {
			app := b.App()
			rng := rand.New(rand.NewSource(14))
			db := storage.NewDatabase(app.Schema)
			if err := b.Populate(db, rng); err != nil {
				t.Fatal(err)
			}
			c, codec, _ := testStackFor(t, app, viewExposures(app), Options{DecisionLog: 1 << 16})
			session := b.NewSession(rng)
			naive, invalidations := 0, 0
			for p := 0; p < 600; p++ {
				var batch []wire.SealedUpdate
				for _, op := range session.NextPage() {
					if op.Template.Kind == template.KQuery {
						sq := seal(t, codec, op.Template, op.Params...)
						if _, hit := c.Lookup(sq); hit {
							continue
						}
						res, err := engine.ExecQuery(db, op.Template.Stmt.(*sqlparse.SelectStmt), op.Params)
						if err != nil {
							t.Fatal(err)
						}
						c.Store(sq, codec.SealResult(op.Template, res), false)
						continue
					}
					if _, err := engine.ExecUpdate(db, op.Template.Stmt, op.Params); err != nil {
						t.Fatal(err)
					}
					su, err := codec.SealUpdate(op.Template, op.Params)
					if err != nil {
						t.Fatal(err)
					}
					batch = append(batch, su)
				}
				if len(batch) == 0 {
					continue
				}
				ref := newRefCache(c)
				for _, u := range batch {
					ids, _ := c.inv.Router().Affected(u.TemplateID)
					for _, id := range ids {
						naive += len(ref.buckets[id])
					}
				}
				logged := len(c.Decisions())
				counts := c.OnUpdates(batch)
				for i, u := range batch {
					n := ref.apply(u)
					invalidations += n
					if counts[i] != n {
						t.Fatalf("page %d update %d (%s%v): invalidated %d, reference %d", p, i, u.TemplateID, u.Params, counts[i], n)
					}
				}
				if got := c.Decisions()[logged:]; len(got)+len(ref.decisions) > 0 && !reflect.DeepEqual(got, ref.decisions) {
					t.Fatalf("page %d: decisions diverged:\ncache: %+v\nref:   %+v", p, got, ref.decisions)
				}
				if got, want := c.Dump(), ref.dump(); !reflect.DeepEqual(got, want) {
					t.Fatalf("page %d: surviving entries diverged: %d vs %d", p, len(got), len(want))
				}
			}
			st := c.Stats()
			if invalidations == 0 || st.EntriesInspected >= naive {
				t.Fatalf("index not exercised: %d invalidations, %d entries inspected vs at most %d naively", invalidations, st.EntriesInspected, naive)
			}
			t.Logf("%d invalidations; %d entries inspected, bucket sizes summed over affected pairs %d", invalidations, st.EntriesInspected, naive)
		})
	}
}
