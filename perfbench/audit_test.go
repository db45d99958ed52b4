package main

import (
	"testing"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
)

func rows(vals ...int64) *engine.Result {
	r := &engine.Result{Columns: []string{"x"}}
	for _, v := range vals {
		r.Rows = append(r.Rows, []sqlparse.Value{sqlparse.IntVal(v)})
	}
	return r
}

func TestSameAnswer(t *testing.T) {
	ordered := &sqlparse.SelectStmt{OrderBy: []sqlparse.OrderKey{{}}, Limit: -1}
	plain := &sqlparse.SelectStmt{Limit: -1}
	limited := &sqlparse.SelectStmt{Limit: 2}
	for _, c := range []struct {
		name      string
		stmt      *sqlparse.SelectStmt
		got, want *engine.Result
		unlimited *engine.Result
		same      bool
	}{
		{"order by, same order", ordered, rows(1, 2, 3), rows(1, 2, 3), nil, true},
		{"order by, rows reordered", ordered, rows(2, 1, 3), rows(1, 2, 3), nil, false},
		{"no order by, rows reordered", plain, rows(2, 1, 3), rows(1, 2, 3), nil, true},
		{"multiset counts duplicates", plain, rows(1, 1, 2), rows(1, 2, 2), nil, false},
		{"stale row", plain, rows(1, 2), rows(1, 3), nil, false},
		{"limit, other matching rows", limited, rows(3, 4), rows(1, 2), rows(1, 2, 3, 4), true},
		{"limit, wrong count", limited, rows(3), rows(1, 2), rows(1, 2, 3, 4), false},
		{"limit, row that no longer matches", limited, rows(1, 9), rows(1, 2), rows(1, 2, 3, 4), false},
		{"limit, duplicate drawn twice", limited, rows(1, 1), rows(1, 2), rows(1, 2, 3), false},
	} {
		if got := sameAnswer(c.stmt, c.got, c.want, c.unlimited); got != c.same {
			t.Errorf("%s: sameAnswer = %v, want %v", c.name, got, c.same)
		}
	}
}
