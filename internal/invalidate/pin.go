package invalidate

import (
	"slices"

	"dssp/internal/schema"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// Equality pins. Statement and view inspection judge every cached
// instance on its own parameters, so an update against a bucket of n
// entries costs n decisions, most of them DNI. For the common shape —
// the update fixes a column c to a value and the query's single instance
// of the update's table filters on `c = ?p` — statement inspection can
// only say Invalidate for entries whose parameter p equals a value the
// update fixes c to: for any other entry the merged constraints on c are
// contradictory (DELETE/UPDATE: two unequal equalities make the column
// infeasible; INSERT: the new row fails the entry's predicate). A pin
// records that shape per (update template, query template) pair, and
// PreparedUpdate.Pinned hands the cache the values, so the cache can
// inspect only the entries holding one of them. View inspection runs only
// after statement inspection says Invalidate, so it never sees the
// skipped entries either: the decisions are exactly those of inspecting
// every entry.
//
// The index uses nothing the strategy did not already see: the pinned
// values are the update's bound parameters (statement exposure) and the
// keys are the cached query's bound parameters.
//
// Exactness. Keys exist only for INT and STRING values, where Value.Equal
// is plain same-kind equality. Equal joins INT 5 with FLOAT 5.0, and a
// FLOAT NaN compares equal to every number, so no key can stand for a
// FLOAT or NULL value: an update whose pinned value has no key takes the
// full walk, and an entry whose parameter has none is inspected by every
// walk (ParamKey).

// PinKey is an exact equality key for an INT or STRING value: two such
// values are Equal iff their keys are ==.
type PinKey struct {
	str bool
	i   int64
	s   string
}

// keyOf returns v's pin key; ok is false for NULL and FLOAT values,
// whose Equal is not key equality.
func keyOf(v sqlparse.Value) (k PinKey, ok bool) {
	switch v.Kind {
	case sqlparse.KindInt:
		return PinKey{i: v.Int}, true
	case sqlparse.KindString:
		return PinKey{str: true, s: v.Str}, true
	}
	return PinKey{}, false
}

// ParamKey returns the key of a cached instance's parameter at position
// param. ok is false when the entry must be inspected by every pinned
// walk: its parameter has no exact key, or its parameter count differs
// from the template's (statement inspection treats a missing parameter
// as satisfiable, so a short entry can be invalidated by any update).
func ParamKey(numParams int, params []sqlparse.Value, param int) (PinKey, bool) {
	if len(params) != numParams || param >= len(params) {
		return PinKey{}, false
	}
	return keyOf(params[param])
}

// pin names a query parameter position an update template fixes through
// one column of its table.
type pin struct {
	param int // query parameter position matched against the pinned values
	slot  int // index into the update template's pinned columns
}

// pinCol is one column an update template can pin.
type pinCol struct {
	name string
	idx  int // position in the table's column order (insertions)
}

// pinTable is the pin half of the routing index.
type pinTable struct {
	pins   map[string]map[string][]pin // update ID -> query ID -> pins
	cols   map[string][]pinCol         // update ID -> pinnable columns, by slot
	params map[string][]int            // query ID -> pinned parameter positions, ascending
}

// buildPins derives every pin of the affected (A > 0) pairs.
func buildPins(sch *schema.Schema, app *template.App, affected map[string][]string) pinTable {
	pt := pinTable{
		pins:   make(map[string]map[string][]pin),
		cols:   make(map[string][]pinCol),
		params: make(map[string][]int),
	}
	infos := make(map[string]*queryInfo, len(app.Queries))
	for _, q := range app.Queries {
		infos[q.ID] = buildQueryInfo(sch, q)
	}
	for _, u := range app.Updates {
		table, fixes := pinnable(sch, u)
		if fixes == nil {
			continue
		}
		for _, qid := range affected[u.ID] {
			q := app.Query(qid)
			for _, p := range queryPins(infos[qid], q.NumParams, table) {
				c, ok := fixes(p.attr.Column)
				if !ok {
					continue
				}
				slot := -1
				for i, pc := range pt.cols[u.ID] {
					if pc.name == c.name {
						slot = i
					}
				}
				if slot < 0 {
					slot = len(pt.cols[u.ID])
					pt.cols[u.ID] = append(pt.cols[u.ID], c)
				}
				if pt.pins[u.ID] == nil {
					pt.pins[u.ID] = make(map[string][]pin)
				}
				pt.pins[u.ID][qid] = append(pt.pins[u.ID][qid], pin{param: p.val.Param, slot: slot})
				if i, found := slices.BinarySearch(pt.params[qid], p.val.Param); !found {
					pt.params[qid] = slices.Insert(pt.params[qid], i, p.val.Param)
				}
			}
		}
	}
	return pt
}

// pinnable returns an update template's table and a test for which of
// its columns it fixes to known values: every column for an insertion,
// and for a deletion or modification the columns of a `c = v` WHERE
// conjunct. fixes is nil when the update pins nothing.
func pinnable(sch *schema.Schema, u *template.Template) (table string, fixes func(string) (pinCol, bool)) {
	var where []sqlparse.Predicate
	switch s := u.Stmt.(type) {
	case *sqlparse.InsertStmt:
		t := sch.Table(s.Table)
		if t == nil {
			return "", nil
		}
		return s.Table, func(col string) (pinCol, bool) {
			i := t.ColumnIndex(col)
			return pinCol{col, i}, i >= 0
		}
	case *sqlparse.DeleteStmt:
		table, where = s.Table, s.Where
	case *sqlparse.UpdateStmt:
		table, where = s.Table, s.Where
	default:
		return "", nil
	}
	return table, func(col string) (pinCol, bool) {
		for _, p := range where {
			c, other := p.Left, p.Right
			if c.Kind != sqlparse.OpColumn {
				c, other = p.Right, p.Left
			}
			if p.Op == sqlparse.OpEq && c.Kind == sqlparse.OpColumn && other.Kind != sqlparse.OpColumn && c.Col.Column == col {
				return pinCol{col, -1}, true
			}
		}
		return pinCol{}, false
	}
}

// queryPins returns the `c = ?p` predicates of a query's single FROM
// instance of table whose column no other equality constrains. A query
// gets none when it cannot be resolved, references the table more than
// once (a self-join: a row can feed either instance), or has a
// predicate naming a parameter past its count (statement inspection
// would treat it as unbound, and satisfiable, for every entry).
func queryPins(qi *queryInfo, numParams int, table string) []instPred {
	if qi.evalErr {
		return nil
	}
	fi := -1
	for i, f := range qi.sel.From {
		if f.Table == table {
			if fi >= 0 {
				return nil
			}
			fi = i
		}
	}
	if fi < 0 {
		return nil
	}
	preds := qi.instPreds[fi]
	var out []instPred
	for _, p := range preds {
		if p.val.Kind == sqlparse.OpParam && p.val.Param >= numParams {
			return nil
		}
		if p.op != sqlparse.OpEq || p.val.Kind != sqlparse.OpParam {
			continue
		}
		// A second equality on the column could move the merged
		// constraint's value (an equal NaN replaces it), so the
		// contradiction the pin relies on would no longer be certain.
		eqs := 0
		for _, o := range preds {
			if o.op == sqlparse.OpEq && o.attr.Column == p.attr.Column {
				eqs++
			}
		}
		if eqs == 1 {
			out = append(out, p)
		}
	}
	return out
}

// PinnedParams returns the parameter positions of a query template that
// some update template pins, ascending: the positions worth indexing.
// The slice is shared; callers must not modify it.
func (r *Router) PinnedParams(queryID string) []int { return r.pinTable.params[queryID] }

// pinnedVals is the set of keys a prepared update fixes one column to.
type pinnedVals struct {
	keys [2]PinKey // pre-image, then a distinct post-image
	n    int
	dead bool // some fixed value has no key, or the column is not fixed
}

func (pv *pinnedVals) ok() bool { return pv.n > 0 && !pv.dead }

// preparePins records, for each column the update's template can pin,
// the keys the update fixes it to: the inserted value, the deletion's
// WHERE equality, or a modification's WHERE equality plus its SET value
// when SET rewrites the column. A column whose constraint is dead
// (contradictory equalities) or whose value has no key is not ok.
func (iv *Invalidator) preparePins(pu *PreparedUpdate) {
	cols := iv.router.pinTable.cols[pu.u.Template.ID]
	if len(cols) == 0 {
		return
	}
	pu.pinTab = iv.router.pinTable.pins[pu.u.Template.ID]
	if len(cols) <= len(pu.pinBuf) {
		pu.pinned = pu.pinBuf[:len(cols)]
	} else {
		pu.pinned = make([]pinnedVals, len(cols))
	}
	_, modify := pu.u.Template.Stmt.(*sqlparse.UpdateStmt)
	for i, c := range cols {
		pv := &pu.pinned[i]
		switch {
		case c.idx >= 0: // insertion
			if pu.row == nil {
				pv.dead = true
				continue
			}
			pv.add(pu.row[c.idx])
		case !pu.consOK:
			pv.dead = true
		default:
			pv.addEq(pu.before.find(c.name))
			if modify {
				pv.addEq(pu.after.find(c.name))
			}
		}
	}
}

// add records v's key, or marks the column dead when v has none.
func (pv *pinnedVals) add(v sqlparse.Value) {
	k, ok := keyOf(v)
	if !ok {
		pv.dead = true
		return
	}
	for _, x := range pv.keys[:pv.n] {
		if x == k {
			return
		}
	}
	pv.keys[pv.n] = k
	pv.n++
}

// addEq records the equality a constraint fixes, or marks the column
// dead when the constraint fixes none or is contradictory.
func (pv *pinnedVals) addEq(rc *rangeCons) {
	if rc == nil || !rc.hasEq || rc.infeasible {
		pv.dead = true
		return
	}
	pv.add(rc.eq)
}

// Pinned reports a parameter position of query template queryID and the
// keys this update fixes it to. Statement inspection decides DNI for
// every entry of that template whose parameter at param has a key
// (ParamKey) outside keys, so the cache need inspect only the entries
// holding one of keys plus those without a key. ok is false when no pin
// applies; then every entry must be inspected. keys is shared and must
// not be modified.
func (pu *PreparedUpdate) Pinned(queryID string) (param int, keys []PinKey, ok bool) {
	for _, p := range pu.pinTab[queryID] {
		if pv := &pu.pinned[p.slot]; pv.ok() {
			return p.param, pv.keys[:pv.n], true
		}
	}
	return 0, nil, false
}
