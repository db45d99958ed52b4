package invalidate

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
)

// pinToystore is richToystore plus the shapes that must get no pin (a
// self-join of the updated table, a column-column-only predicate, a
// doubled equality on one column) and a modification whose SET rewrites
// the column its WHERE fixes.
func pinToystore() *template.App {
	app := richToystore()
	s := app.Schema
	app.Queries = append(app.Queries,
		template.MustNew("Q12", s, "SELECT t1.qty FROM toys AS t1, toys AS t2 WHERE t1.toy_id=? AND t2.toy_name=?"),
		template.MustNew("Q13", s, "SELECT cust_name FROM customers, credit_card WHERE cust_id=cid"),
		template.MustNew("Q14", s, "SELECT qty FROM toys WHERE toy_id=? AND toy_id=?"),
		template.MustNew("Q15", s, "SELECT toy_id FROM toys WHERE qty=?"),
	)
	app.Updates = append(app.Updates,
		template.MustNew("U8", s, "UPDATE toys SET toy_name=? WHERE toy_id=? AND toy_name=?"),
	)
	return app
}

// pinParams extends randomParams to pinToystore's templates.
func pinParams(rng *rand.Rand, db *storage.Database, tm *template.Template) []sqlparse.Value {
	name := func() sqlparse.Value { return sqlparse.StringVal(toyNames[rng.Intn(len(toyNames))]) }
	switch tm.ID {
	case "U8":
		return []sqlparse.Value{name(), sqlparse.IntVal(int64(1 + rng.Intn(12))), name()}
	case "Q12":
		return []sqlparse.Value{sqlparse.IntVal(int64(1 + rng.Intn(10))), name()}
	case "Q14":
		id := sqlparse.IntVal(int64(1 + rng.Intn(10)))
		return []sqlparse.Value{id, id}
	}
	return randomParams(rng, db, tm)
}

// TestPinTable pins which pairs get an equality pin, and on which query
// parameter.
func TestPinTable(t *testing.T) {
	iv := newInvalidator(pinToystore())
	r := iv.Router()
	cases := []struct {
		u, q  string
		param int // -1: no pin
	}{
		{"U1", "Q2", 0},  // DELETE toys WHERE toy_id=? vs toy_id=?
		{"U1", "Q1", -1}, // the delete fixes toy_id, the query filters toy_name
		{"U4", "Q2", 0},  // UPDATE ... WHERE toy_id=?
		{"U4", "Q7", -1}, // range predicate on the query side
		{"U3", "Q1", 0},  // an insertion fixes every column
		{"U3", "Q4", 0},
		{"U3", "Q2", -1}, // A = 0: never visited, so never pinned
		{"U2", "Q3", 0},  // insertion into the joined credit_card
		{"U2", "Q9", 0},
		{"U5", "Q15", -1}, // range-only DELETE pins nothing
		{"U4", "Q15", -1}, // UPDATE ... SET qty=? WHERE toy_id=? fixes qty only after
		{"U3", "Q15", 0},
		{"U7", "Q3", -1}, // UPDATE ... WHERE cid=? does not fix zip_code
		{"U1", "Q12", -1},
		{"U3", "Q12", -1}, // self-join
		{"U2", "Q13", -1}, // column-column predicates only
		{"U1", "Q14", -1}, // doubled equality
		{"U8", "Q1", 0},   // WHERE ... toy_name=? fixes the column SET rewrites
		{"U8", "Q4", 0},
	}
	for _, c := range cases {
		got := -1
		if ps := r.pinTable.pins[c.u][c.q]; len(ps) > 0 {
			got = ps[0].param
		}
		if got != c.param {
			t.Errorf("pin(%s, %s) = %d, want %d", c.u, c.q, got, c.param)
		}
	}
	if got := r.PinnedParams("Q2"); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("PinnedParams(Q2) = %v, want [0]", got)
	}
	for _, q := range []string{"Q7", "Q12", "Q13", "Q14"} {
		if got := r.PinnedParams(q); len(got) != 0 {
			t.Errorf("PinnedParams(%s) = %v, want none", q, got)
		}
	}
}

// TestPreparedPins pins the values Prepare records: the WHERE equality
// of a deletion, a modification's pre-image plus a SET that rewrites the
// column, the inserted value, and no pin when a value has no exact key.
func TestPreparedPins(t *testing.T) {
	app := pinToystore()
	iv := newInvalidator(app)
	i, f, str := sqlparse.IntVal, sqlparse.FloatVal, sqlparse.StringVal
	key := func(v sqlparse.Value) PinKey { k, _ := keyOf(v); return k }
	cases := []struct {
		u, q   string
		params []sqlparse.Value
		want   []PinKey // nil: no pin
	}{
		{"U1", "Q2", []sqlparse.Value{i(5)}, []PinKey{key(i(5))}},
		{"U1", "Q2", []sqlparse.Value{f(5)}, nil},
		{"U1", "Q2", []sqlparse.Value{f(math.NaN())}, nil},
		{"U1", "Q2", []sqlparse.Value{sqlparse.Null()}, nil},
		{"U1", "Q2", nil, nil}, // unbound parameter
		{"U4", "Q2", []sqlparse.Value{i(9), i(5)}, []PinKey{key(i(5))}},
		{"U7", "Q3", []sqlparse.Value{str("15201"), i(2)}, nil},
		{"U3", "Q1", []sqlparse.Value{i(40), str("kite"), i(3)}, []PinKey{key(str("kite"))}},
		{"U3", "Q1", []sqlparse.Value{i(40), sqlparse.Null(), i(3)}, nil},
		{"U2", "Q3", []sqlparse.Value{i(1), str("4111"), str("15213")}, []PinKey{key(str("15213"))}},
	}
	for _, c := range cases {
		pu := iv.Prepare(UpdateInstance{Template: app.Update(c.u), Params: c.params})
		_, keys, ok := pu.Pinned(c.q)
		if !ok {
			keys = nil
		}
		if !reflect.DeepEqual(keys, c.want) {
			t.Errorf("%s%v vs %s: pinned %v, want %v", c.u, c.params, c.q, keys, c.want)
		}
	}

	// A modification that rewrites the pinned column pins its pre-image
	// and its post-image, once each.
	pu := iv.Prepare(UpdateInstance{Template: app.Update("U8"), Params: []sqlparse.Value{str("kite"), i(1), str("bear")}})
	if _, keys, ok := pu.Pinned("Q1"); !ok || !reflect.DeepEqual(keys, []PinKey{key(str("bear")), key(str("kite"))}) {
		t.Errorf("rewriting UPDATE pinned %v (ok=%v), want [bear kite]", keys, ok)
	}
	pu = iv.Prepare(UpdateInstance{Template: app.Update("U8"), Params: []sqlparse.Value{str("bear"), i(1), str("bear")}})
	if _, keys, ok := pu.Pinned("Q1"); !ok || !reflect.DeepEqual(keys, []PinKey{key(str("bear"))}) {
		t.Errorf("identity UPDATE pinned %v (ok=%v), want [bear]", keys, ok)
	}
}

// TestPinnedEntriesAreDNI is the soundness property the cache's index
// rests on: whenever an update pins a parameter of a query template, every
// cached instance whose parameter there has a key outside the pinned keys
// gets DNI from statement and from view inspection. Randomized over the
// correctness generator, with parameters perturbed to FLOAT twins, NaN,
// NULL and short parameter lists on both sides.
func TestPinnedEntriesAreDNI(t *testing.T) {
	app := pinToystore()
	iv := newInvalidator(app)
	rng := rand.New(rand.NewSource(14))
	perturb := func(ps []sqlparse.Value) []sqlparse.Value {
		out := append([]sqlparse.Value(nil), ps...)
		switch rng.Intn(8) {
		case 0:
			if len(out) > 0 {
				j := rng.Intn(len(out))
				if out[j].Kind == sqlparse.KindInt {
					out[j] = sqlparse.FloatVal(float64(out[j].Int))
				}
			}
		case 1:
			if len(out) > 0 {
				out[rng.Intn(len(out))] = sqlparse.FloatVal(math.NaN())
			}
		case 2:
			if len(out) > 0 {
				out[rng.Intn(len(out))] = sqlparse.Null()
			}
		case 3:
			if len(out) > 0 {
				out = out[:len(out)-1]
			}
		}
		return out
	}
	skipped, pinnedPairs := 0, 0
	for trial := 0; trial < 300; trial++ {
		db := randomToystoreDB(t, rng, app)
		u := app.Updates[rng.Intn(len(app.Updates))]
		pu := iv.Prepare(UpdateInstance{Template: u, Params: perturb(pinParams(rng, db, u))})
		for _, q := range app.Queries {
			param, keys, ok := pu.Pinned(q.ID)
			if !ok {
				continue
			}
			pinnedPairs++
			for n := 0; n < 8; n++ {
				params := pinParams(rng, db, q)
				var res *engine.Result
				if len(params) == q.NumParams {
					r, err := engine.ExecQuery(db, q.Stmt.(*sqlparse.SelectStmt), params)
					if err != nil {
						t.Fatalf("exec %s: %v", q.ID, err)
					}
					res = r
				}
				params = perturb(params)
				k, keyed := ParamKey(q.NumParams, params, param)
				if !keyed {
					continue
				}
				inKeys := false
				for _, x := range keys {
					inKeys = inKeys || x == k
				}
				if inKeys {
					continue
				}
				skipped++
				v := CachedView{Template: q, Params: params, Result: res}
				for _, class := range []Class{StatementInspection, ViewInspection} {
					if d := iv.DecidePrepared(class, pu, v); d != DNI {
						t.Fatalf("%v: %s%v vs %s%v: skipped entry decided %v", class, u.ID, pu.u.Params, q.ID, params, d)
					}
				}
			}
		}
	}
	if pinnedPairs < 100 || skipped < 300 {
		t.Fatalf("generator too weak: %d pinned pairs, %d skipped entries", pinnedPairs, skipped)
	}
}

// TestPreparePinsAllocOnce pins that pinned values live in the prepared
// update itself: preparing an update whose template pins columns costs
// no more allocations than one that pins none.
func TestPreparePinsAllocOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector defeats sync.Pool reuse; allocation counts are meaningless")
	}
	app := pinToystore()
	iv := newInvalidator(app)
	pinned := UpdateInstance{Template: app.Update("U1"), Params: []sqlparse.Value{sqlparse.IntVal(5)}}
	unpinned := UpdateInstance{Template: app.Update("U5"), Params: []sqlparse.Value{sqlparse.IntVal(5)}}
	a := testing.AllocsPerRun(100, func() { iv.Prepare(pinned) })
	b := testing.AllocsPerRun(100, func() { iv.Prepare(unpinned) })
	if a > b {
		t.Errorf("Prepare allocates %.0f with pins vs %.0f without", a, b)
	}
}
