package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"dssp/internal/engine"
	"dssp/internal/httpapi"
	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/workload"
)

// auditResult is the freshness audit's outcome.
type auditResult struct {
	checked int      // distinct queries replayed
	stale   int      // answers that disagree with the home database
	errors  int      // replays or reference executions that failed
	samples []string // a few mismatches, for the report
}

// auditSample bounds how many distinct queries the audit replays.
const auditSample = 1500

// freshnessAudit replays a seeded sample of the run's distinct queries
// through the fleet, after load has stopped and every update has been
// confirmed, and compares each answer with the home database's own
// execution. A cached entry that an update should have invalidated
// answers with pre-update rows and counts as a stale read.
func freshnessAudit(ctx context.Context, cl *httpapi.Client, db *storage.Database, queries []workload.Op, rng *rand.Rand) auditResult {
	distinct := map[string]workload.Op{}
	for _, op := range queries {
		distinct[op.Template.ID+"\x00"+storage.Key(op.Params)] = op
	}
	keys := make([]string, 0, len(distinct))
	for k := range distinct {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	if len(keys) > auditSample {
		keys = keys[:auditSample]
	}

	var res auditResult
	for _, k := range keys {
		op := distinct[k]
		stmt, ok := op.Template.Stmt.(*sqlparse.SelectStmt)
		if !ok {
			res.errors++
			continue
		}
		args := make([]interface{}, len(op.Params))
		for i, v := range op.Params {
			args[i] = v
		}
		got, err := cl.Query(ctx, op.Template, args...)
		if err != nil {
			res.errors++
			continue
		}
		want, err := engine.ExecQuery(db, stmt, op.Params)
		if err != nil {
			res.errors++
			continue
		}
		var unlimited *engine.Result
		if len(stmt.OrderBy) == 0 && stmt.Limit >= 0 {
			all := *stmt
			all.Limit = -1
			if unlimited, err = engine.ExecQuery(db, &all, op.Params); err != nil {
				res.errors++
				continue
			}
		}
		res.checked++
		if !sameAnswer(stmt, got.Result, want, unlimited) {
			res.stale++
			if len(res.samples) < 5 {
				res.samples = append(res.samples, fmt.Sprintf("%s%v hit=%v: got %d rows, want %d",
					op.Template.ID, op.Params, got.Outcome.Hit, got.Result.Len(), want.Len()))
			}
		}
	}
	return res
}

// sameAnswer decides whether got is a correct answer to stmt, given the
// reference execution want. Rows are compared in order only under ORDER
// BY (whose ties the engine breaks canonically); otherwise as multisets.
// Under LIMIT without ORDER BY any limit matching rows are correct, so
// got must have want's row count and draw every row from unlimited, the
// same query's answer without its LIMIT.
func sameAnswer(stmt *sqlparse.SelectStmt, got, want, unlimited *engine.Result) bool {
	switch {
	case len(stmt.OrderBy) > 0:
		return got.Fingerprint(true) == want.Fingerprint(true)
	case stmt.Limit >= 0:
		if got.Len() != want.Len() {
			return false
		}
		pool := map[string]int{}
		for _, row := range unlimited.Rows {
			pool[storage.Key(row)]++
		}
		for _, row := range got.Rows {
			k := storage.Key(row)
			if pool[k] == 0 {
				return false
			}
			pool[k]--
		}
		return true
	default:
		return got.Fingerprint(false) == want.Fingerprint(false)
	}
}
