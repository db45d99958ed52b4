package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/encrypt"
	"dssp/internal/homeserver"
	"dssp/internal/invalidate"
	"dssp/internal/obs"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// RouteParityResult certifies that the invalidation routing index is a
// pure fast path: on the same sealed operation stream, a routed cache and
// an unrouted one (Options.DisableRouting) invalidate exactly the same
// entries and record exactly the same decisions — the routed log is the
// unrouted log minus the A = 0 pairs the static analysis proved need no
// decision, and every one of those elided decisions dropped nothing.
type RouteParityResult struct {
	App     string
	Pages   int
	Updates int
	Queries int

	RoutedInvalidations   int
	UnroutedInvalidations int
	RoutedDecisions       int
	UnroutedDecisions     int
	RoutedVisited         int
	RoutedSkipped         int

	ElidedAZero    int // unrouted decisions absent from the routed log (A = 0 pairs)
	ElidedNonzero  int // elided decisions that dropped entries (must be 0)
	LogMismatches  int // position-wise differences after eliding A = 0 (must be 0)
	OpMismatches   int // updates where the two caches invalidated different counts (must be 0)
	EntryDivergent int // final cache sizes differ (must be 0)
}

// Passed reports whether the routed path is provably decision-identical.
func (r *RouteParityResult) Passed() bool {
	return r.ElidedNonzero == 0 && r.LogMismatches == 0 && r.OpMismatches == 0 &&
		r.EntryDivergent == 0 && r.RoutedInvalidations == r.UnroutedInvalidations
}

// parityExposures assigns a deterministic mix of exposure levels so the
// replay exercises every strategy class, including blind entries and
// blind updates.
func parityExposures(app *template.App) map[string]template.Exposure {
	m := make(map[string]template.Exposure, len(app.Queries)+len(app.Updates))
	qcycle := []template.Exposure{template.ExpView, template.ExpStmt, template.ExpTemplate, template.ExpStmt, template.ExpBlind}
	for i, q := range app.Queries {
		m[q.ID] = qcycle[i%len(qcycle)]
	}
	ucycle := []template.Exposure{template.ExpStmt, template.ExpTemplate, template.ExpStmt, template.ExpBlind}
	for i, u := range app.Updates {
		m[u.ID] = ucycle[i%len(ucycle)]
	}
	return m
}

// replay is the sealed operation stream both invalidation experiments
// (RouteParity, BatchInvalidation) drive their caches with: a seeded
// benchmark session's ops, materialized up front so every cache under
// comparison replays identical sealed messages, over a populated home
// server that executes each statement once.
type replay struct {
	app      *template.App
	codec    *wire.Codec
	analysis *core.Analysis
	home     *homeserver.Server
	ops      []workload.Op
	updates  int
	logSize  int // a decision-log bound no replay of ops can wrap
}

func newReplay(b workload.Benchmark, pages int, seed int64) (*replay, error) {
	rng := rand.New(rand.NewSource(seed))
	app := b.App()
	db := storage.NewDatabase(app.Schema)
	if err := b.Populate(db, rng); err != nil {
		return nil, err
	}
	master := make([]byte, encrypt.KeySize)
	rng.Read(master)
	codec := wire.NewCodec(app, encrypt.MustNewKeyring(master), parityExposures(app))
	r := &replay{
		app:      app,
		codec:    codec,
		analysis: core.Analyze(app, core.DefaultOptions()),
		home:     homeserver.New(db, app, codec),
	}
	session := b.NewSession(rng)
	for p := 0; p < pages; p++ {
		page := session.NextPage()
		r.ops = append(r.ops, page...)
		for _, op := range page {
			if op.Template.Kind != template.KQuery {
				r.updates++
			}
		}
	}
	r.logSize = r.updates*(len(app.Queries)+2) + 16
	return r, nil
}

// newCache builds one cache under comparison, its decision log sized so
// nothing wraps before the diff.
func (r *replay) newCache(opts cache.Options) *cache.Cache {
	opts.DecisionLog = r.logSize
	return cache.New(r.app, invalidate.New(r.app, r.analysis), opts)
}

// query seals a query op and serves it from every cache, executing it at
// the home server once for whichever caches miss.
func (r *replay) query(op workload.Op, caches ...*cache.Cache) error {
	sq, err := r.codec.SealQuery(op.Template, op.Params)
	if err != nil {
		return err
	}
	var sealed wire.SealedResult
	var empty, fetched bool
	for _, c := range caches {
		if _, hit := c.Lookup(sq); hit {
			continue
		}
		if !fetched {
			if sealed, empty, _, err = r.home.ExecQuery(sq); err != nil {
				return err
			}
			fetched = true
		}
		c.Store(sq, sealed, empty)
	}
	return nil
}

// update seals an update op and executes it at the home server.
func (r *replay) update(op workload.Op) (wire.SealedUpdate, error) {
	su, err := r.codec.SealUpdate(op.Template, op.Params)
	if err != nil {
		return su, err
	}
	_, _, err = r.home.ExecUpdate(su)
	return su, err
}

// RouteParity replays a seeded benchmark workload against two caches —
// one routing invalidation through the index, one visiting every bucket —
// and diffs their decision logs and invalidation counts.
func RouteParity(b workload.Benchmark, pages int, seed int64) (*RouteParityResult, error) {
	rp, err := newReplay(b, pages, seed)
	if err != nil {
		return nil, err
	}
	routed := rp.newCache(cache.Options{})
	unrouted := rp.newCache(cache.Options{DisableRouting: true})
	res := &RouteParityResult{App: b.Name(), Pages: pages, Updates: rp.updates}
	for _, op := range rp.ops {
		if op.Template.Kind == template.KQuery {
			res.Queries++
			if err := rp.query(op, routed, unrouted); err != nil {
				return nil, err
			}
			continue
		}
		su, err := rp.update(op)
		if err != nil {
			return nil, err
		}
		us := []wire.SealedUpdate{su}
		if routed.OnUpdates(us)[0] != unrouted.OnUpdates(us)[0] {
			res.OpMismatches++
		}
	}

	rStats, uStats := routed.Stats(), unrouted.Stats()
	res.RoutedInvalidations = rStats.Invalidations
	res.UnroutedInvalidations = uStats.Invalidations
	res.RoutedVisited = rStats.BucketsVisited
	res.RoutedSkipped = rStats.BucketsSkipped
	if routed.Len() != unrouted.Len() {
		res.EntryDivergent++
	}

	// Diff the logs: drop every unrouted decision on a pair the analysis
	// proved A = 0 (those are exactly the ones routing elides) and demand
	// the remainder match the routed log decision for decision.
	rLog, uLog := routed.Decisions(), unrouted.Decisions()
	router := invalidate.NewRouter(rp.analysis)
	res.RoutedDecisions, res.UnroutedDecisions = len(rLog), len(uLog)
	filtered := make([]cache.Decision, 0, len(uLog))
	for _, d := range uLog {
		if d.UpdateTemplate != obs.BlindTemplate && d.QueryTemplate != obs.BlindTemplate &&
			router.AZero(d.UpdateTemplate, d.QueryTemplate) {
			res.ElidedAZero++
			if d.Dropped != 0 {
				res.ElidedNonzero++
			}
			continue
		}
		filtered = append(filtered, d)
	}
	if len(filtered) != len(rLog) {
		res.LogMismatches += abs(len(filtered) - len(rLog))
	}
	for i := 0; i < len(filtered) && i < len(rLog); i++ {
		if filtered[i] != rLog[i] {
			res.LogMismatches++
		}
	}
	return res, nil
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// Format renders the parity summary.
func (r *RouteParityResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Routing parity on the %s workload (%d pages: %d queries, %d updates)\n\n",
		r.App, r.Pages, r.Queries, r.Updates)
	rows := [][]string{
		{"", "routed", "unrouted"},
		{"invalidations", fmt.Sprint(r.RoutedInvalidations), fmt.Sprint(r.UnroutedInvalidations)},
		{"decisions logged", fmt.Sprint(r.RoutedDecisions), fmt.Sprint(r.UnroutedDecisions)},
	}
	table(&b, rows)
	fmt.Fprintf(&b, "\nbuckets visited %d, skipped by the A=0 index %d\n", r.RoutedVisited, r.RoutedSkipped)
	fmt.Fprintf(&b, "unrouted-only decisions, all on A=0 pairs: %d (with drops, must be 0: %d)\n",
		r.ElidedAZero, r.ElidedNonzero)
	fmt.Fprintf(&b, "log mismatches after eliding A=0 pairs (must be 0): %d\n", r.LogMismatches)
	fmt.Fprintf(&b, "per-update count mismatches (must be 0): %d\n", r.OpMismatches)
	verdict := "IDENTICAL"
	if !r.Passed() {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "verdict: routed and unrouted invalidation decisions are %s\n", verdict)
	return b.String()
}
