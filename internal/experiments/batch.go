package experiments

import (
	"fmt"
	"reflect"
	"strings"

	"dssp/internal/cache"
	"dssp/internal/template"
	"dssp/internal/wire"
	"dssp/internal/workload"
)

// BatchRun is one batch-size configuration's measurement: the same update
// stream applied to an identically warmed cache, grouped into batches of
// Size (the monitoring-interval model: every update confirmed within one
// interval is invalidated in one pass).
type BatchRun struct {
	Size          int
	Batches       int
	Invalidations int
	BucketWalks   int  // physical bucket probes under a shard lock
	LogIdentical  bool // decision log equals the size-1 run's
	DumpIdentical bool // surviving entries equal the size-1 run's
}

// BatchResult certifies that batched invalidation is a pure amortization:
// on the same sealed update stream, every batch size produces the decision
// log and final cache image of batch size 1 — one update per pass, the
// inline path — while walking each affected bucket once per batch instead
// of once per update.
type BatchResult struct {
	App     string
	Pages   int
	Queries int
	Updates int
	Entries int // cache entries at measurement start, identical per run

	// Runs holds one measurement per batch size; Runs[0] is always size 1,
	// the baseline the others are diffed against.
	Runs []BatchRun
}

// Passed reports whether every batch size reproduced the size-1 decisions
// exactly, with strictly fewer bucket walks above size 1.
func (r *BatchResult) Passed() bool {
	base := r.Runs[0]
	for _, run := range r.Runs {
		if !run.LogIdentical || !run.DumpIdentical || run.Invalidations != base.Invalidations {
			return false
		}
		if run.Size > 1 && run.BucketWalks >= base.BucketWalks {
			return false
		}
	}
	return true
}

// WalkRatio reports size-1 walks over the given batch size's walks — the
// amortization factor the monitoring interval buys.
func (r *BatchResult) WalkRatio(size int) float64 {
	for _, run := range r.Runs {
		if run.Size == size && run.BucketWalks > 0 {
			return float64(r.Runs[0].BucketWalks) / float64(run.BucketWalks)
		}
	}
	return 0
}

// BatchInvalidation replays a seeded benchmark workload to warm one cache
// per batch size identically — every cache stores the same sealed
// results, and no invalidation runs during the warm phase — then applies
// the workload's sealed update stream to each, grouped into batches of
// that size. Size 1 always runs first (added if sizes omits it); every
// other size's decision log and cache dump are diffed byte for byte
// against it.
func BatchInvalidation(b workload.Benchmark, pages int, seed int64, sizes []int) (*BatchResult, error) {
	rp, err := newReplay(b, pages, seed)
	if err != nil {
		return nil, err
	}
	all := []int{1}
	for _, size := range sizes {
		if size < 1 {
			return nil, fmt.Errorf("batch size %d", size)
		}
		if size > 1 {
			all = append(all, size)
		}
	}
	caches := make([]*cache.Cache, len(all))
	for i := range caches {
		caches[i] = rp.newCache(cache.Options{})
	}

	// Warm phase: queries are cached everywhere; updates execute on the
	// home server (so later results reflect them) and are collected for
	// the measurement phase, with no invalidation yet — all caches reach
	// the measurement start in the identical state.
	res := &BatchResult{App: b.Name(), Pages: pages, Updates: rp.updates}
	var stream []wire.SealedUpdate
	for _, op := range rp.ops {
		if op.Template.Kind == template.KQuery {
			res.Queries++
			if err := rp.query(op, caches...); err != nil {
				return nil, err
			}
			continue
		}
		su, err := rp.update(op)
		if err != nil {
			return nil, err
		}
		stream = append(stream, su)
	}
	res.Entries = caches[0].Len()

	// Measurement: size 1 first, then each larger size against it.
	var baseLog []cache.Decision
	var baseDump []string
	for i, size := range all {
		c := caches[i]
		run := BatchRun{Size: size}
		for off := 0; off < len(stream); off += size {
			end := off + size
			if end > len(stream) {
				end = len(stream)
			}
			for _, inv := range c.OnUpdates(stream[off:end]) {
				run.Invalidations += inv
			}
			run.Batches++
		}
		run.BucketWalks = c.Stats().BucketWalks
		if i == 0 {
			baseLog, baseDump = c.Decisions(), c.Dump()
		}
		run.LogIdentical = reflect.DeepEqual(c.Decisions(), baseLog)
		run.DumpIdentical = reflect.DeepEqual(c.Dump(), baseDump)
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// Format renders the batching summary.
func (r *BatchResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Batched invalidation on the %s workload (%d pages: %d queries, %d updates; %d warm entries)\n\n",
		r.App, r.Pages, r.Queries, r.Updates, r.Entries)
	tick := func(ok bool) string {
		if ok {
			return "identical"
		}
		return "DIVERGED"
	}
	rows := [][]string{{"batch size", "batches", "invalidations", "bucket walks", "walk ratio", "log", "dump"}}
	for _, run := range r.Runs {
		rows = append(rows, []string{fmt.Sprint(run.Size), fmt.Sprint(run.Batches), fmt.Sprint(run.Invalidations),
			fmt.Sprint(run.BucketWalks), fmt.Sprintf("%.2fx", r.WalkRatio(run.Size)),
			tick(run.LogIdentical), tick(run.DumpIdentical)})
	}
	table(&b, rows)
	verdict := "IDENTICAL decisions, amortized walks"
	if !r.Passed() {
		verdict = "DIVERGED"
	}
	fmt.Fprintf(&b, "\nverdict: %s\n", verdict)
	return b.String()
}
