package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dssp/internal/obs"
	"dssp/internal/workload"
)

// counterSnap reads the fleet's own counters at a phase boundary.
type counterSnap struct {
	nodeQueries            []int64 // per node: cache hits + misses
	hits, misses           int64
	invalidations          int64
	bucketsVisited, walks  int64
	coalesced              int64
	fanSent, fanUpdates    int64
	skipped, broadcasts    int64
	retries, proxyErrors   int64
	homeQueries, homeUpdts int64
	entries                int
}

func snapshot(f *fleet) counterSnap {
	var c counterSnap
	for _, ns := range f.nodes {
		st := ns.Node.Cache.Stats()
		c.nodeQueries = append(c.nodeQueries, int64(st.Hits+st.Misses))
		c.hits += int64(st.Hits)
		c.misses += int64(st.Misses)
		c.invalidations += int64(st.Invalidations)
		c.bucketsVisited += int64(st.BucketsVisited)
		c.walks += int64(st.BucketWalks)
		c.coalesced += ns.Reg.Counter(obs.MCoalescedMisses).Value()
		c.entries += ns.Node.Cache.Len()
	}
	reg := f.router.Reg
	c.coalesced += reg.Counter(obs.MCoalescedMisses).Value()
	fan := reg.Histogram(obs.MRouterFanoutNodes)
	c.fanSent = int64(fan.Sum() / time.Microsecond) // an n-node fan-out is recorded as n µs
	c.fanUpdates = fan.Count()
	c.skipped = reg.Counter(obs.MRouterFanoutSkipped).Value()
	c.broadcasts = reg.Counter(obs.MRouterBroadcasts).Value()
	c.retries = reg.Counter(obs.MRouterQueryRetries).Value()
	for _, k := range []string{obs.KindQuery, obs.KindUpdate, obs.KindInvalidate} {
		c.proxyErrors += reg.Counter(obs.MRouterProxyErrors, obs.L(obs.LKind, k)).Value()
	}
	c.homeQueries = int64(f.home.QueriesServed())
	c.homeUpdts = int64(f.home.UpdatesApplied())
	return c
}

// pathLayers are the blocking-path layers of an op, outermost first.
var pathLayers = []string{
	"client", "hop.client_router", "router", "hop.router_node", "node", "hop.node_home", "home",
}

// maxPathGap is the largest share by which an op kind's layer times may
// miss its mean latency: time no span accounts for.
const maxPathGap = 0.10

// runTraced measures the per-layer split: a traced phase at the
// workload's fixed rate between two untraced phases at the same rate,
// then the freshness audit. The traced phase's spans give the split; its
// CPU per page against the untraced phases' is the tracing overhead
// (bracketing it cancels the drift of a warming cache).
func runTraced(spec workloadSpec, seed int64, dur time.Duration, outDir string) (*result, error) {
	tr := newTracer()
	f, _, err := setupFleet(spec, tr)
	if err != nil {
		return nil, err
	}
	defer f.close()
	cl := f.newClient(tr)
	g := newGenerator(f.bench, clientExec(cl), tr, seed)
	rng := rand.New(rand.NewSource(seed))

	warm := g.run(0, 0, spec.warm, rng)
	before := g.run(spec.rate, dur/4, 0, rng)
	c0 := snapshot(f)
	tr.on.Store(true)
	traced := g.run(spec.rate, dur/2, 0, rng)
	tr.on.Store(false)
	c1 := snapshot(f)
	after := g.run(spec.rate, dur/4, 0, rng)
	reportPhase("untraced (before)", before)
	reportPhase("traced", traced)
	reportPhase("untraced (after)", after)
	spans := tr.take()

	var queries []workload.Op
	for _, p := range []*phaseResult{warm, before, traced, after} {
		queries = append(queries, p.queries...)
	}
	aud := freshnessAudit(context.Background(), cl, f.db, queries, rng)
	reportAudit(aud)

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d.jsonl", spec.name, seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(spans), path)

	m, gaps, unlinked := layerMetrics(spans)
	counterMetrics(m, c0, c1, traced)
	untracedCPU := float64((before.cpu + after.cpu).Microseconds()) / float64(max(before.completed+after.completed, 1))
	tracedCPU := float64(traced.cpu.Microseconds()) / float64(max(traced.completed, 1))
	m["trace.cpu_overhead_pct"] = metric{100 * (tracedCPU/untracedCPU - 1), "%"}
	fmt.Printf("tracing overhead: %.1f us CPU per page traced vs %.1f untraced\n", tracedCPU, untracedCPU)

	ops := float64(max(before.attempted+after.attempted, 1))
	rt := runtimeDelta{
		allocs:     before.res.allocs + after.res.allocs,
		allocBytes: before.res.allocBytes + after.res.allocBytes,
		gcCPU:      before.res.gcCPU + after.res.gcCPU,
		totalCPU:   before.res.totalCPU + after.res.totalCPU,
		idleCPU:    before.res.idleCPU + after.res.idleCPU,
	}
	m["runtime.allocs_per_op"] = metric{rt.allocs / ops, "count"}
	m["runtime.alloc_bytes_per_op"] = metric{rt.allocBytes / ops, "bytes"}
	m["runtime.gc_cpu_fraction"] = metric{rt.gcCPU / math.Max(rt.busyCPU(), 1e-9), "ratio"}
	late := summarize(append(append([]float64(nil), before.lateness...), after.lateness...))
	lt, _, _ := late.tail()
	m["gen.lateness_p99_ms"] = metric{lt, "ms"}
	m["gen.lateness_max_ms"] = metric{late.sorted[max(late.n()-1, 0)], "ms"}
	m["stale_reads"] = metric{float64(aud.stale), "count"}
	m["trace.unlinked_spans"] = metric{float64(unlinked), "count"}
	printMetrics(m)

	ok := aud.errors == 0 && aud.checked > 0 && aud.stale == 0 && unlinked == 0 &&
		!before.grew && !traced.grew && !after.grew
	for _, gap := range gaps {
		ok = ok && gap <= maxPathGap
	}
	res := &result{Correct: ok, Metrics: m}
	for _, p := range []*phaseResult{before, traced, after} {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	return res, nil
}

// layerMetrics derives the span-based per-layer metrics and prints the
// blocking-path split per op kind. gaps holds, per op kind with ops, the
// share of its mean latency the layer times fail to account for.
func layerMetrics(spans []span) (map[string]metric, []float64, int) {
	t := buildTree(spans)
	m := map[string]metric{}

	var opN [numOpKinds]int
	var opLat [numOpKinds]float64
	split := [numOpKinds]map[string]float64{{}, {}, {}}
	clientSelf := [numOpKinds][]float64{}
	hopSelf := map[string][]float64{}
	hopBytes := map[string][]float64{}
	handlerSelf := map[string][]float64{}

	kindOf := func(name string) int {
		for k, n := range opNames {
			if n == name {
				return k
			}
		}
		return -1
	}
	for i := range t.spans {
		s := &t.spans[i]
		switch s.kind {
		case kindOp:
			k := kindOf(s.Op)
			opN[k]++
			opLat[k] += float64(s.dur())
			clientSelf[k] = append(clientSelf[k], float64(t.self(i))/1e3)
			t.attribute(i, 1, split[k])
		case kindRT:
			l := layer(s)
			hopSelf[l] = append(hopSelf[l], float64(t.self(i))/1e3)
			hopBytes[l] = append(hopBytes[l], float64(s.Bytes))
		case kindHandler:
			key := ""
			switch procClass(s.Proc) {
			case procRouter:
				key = "router.self_us." + lastSeg(s.Path)
			case procNode:
				key = "node.self_us." + lastSeg(s.Path)
				if lastSeg(s.Path) == "query" {
					key = "node.self_us." + t.opKind[s.Trace]
				}
			case procHome:
				key = "home.exec_us." + lastSeg(s.Path)
			}
			handlerSelf[key] = append(handlerSelf[key], float64(t.self(i))/1e3)
		}
	}

	for k := 0; k < numOpKinds; k++ {
		m["client.self_us."+opNames[k]] = metric{summarize(clientSelf[k]).mean(), "us"}
	}
	for _, h := range []string{"client_router", "router_node", "node_home"} {
		m["hop."+h+".us_p50"] = metric{summarize(hopSelf["hop."+h]).p50(), "us"}
		m["hop."+h+".bytes_per_call"] = metric{summarize(hopBytes["hop."+h]).mean(), "bytes"}
	}
	for _, key := range []string{
		"router.self_us.query", "router.self_us.update",
		"node.self_us.hit", "node.self_us.miss", "node.self_us.update", "node.self_us.invalidate",
		"home.exec_us.query", "home.exec_us.update",
	} {
		m[key] = metric{summarize(handlerSelf[key]).mean(), "us"}
	}

	fmt.Println("blocking-path split, mean us per op (traced phase):")
	fmt.Printf("  %-7s %6s %9s", "kind", "n", "latency")
	for _, l := range pathLayers {
		fmt.Printf(" %*s", max(len(l), 8), l)
	}
	fmt.Printf(" %9s %7s\n", "sum", "gap")
	var gaps []float64
	for k := 0; k < numOpKinds; k++ {
		if opN[k] == 0 {
			continue
		}
		n := float64(opN[k])
		lat := opLat[k] / n / 1e3
		fmt.Printf("  %-7s %6d %9.1f", opNames[k], opN[k], lat)
		var sum float64
		for _, l := range pathLayers {
			v := split[k][l] / n / 1e3
			sum += v
			fmt.Printf(" %*.1f", max(len(l), 8), v)
		}
		gap := math.Abs(sum-lat) / lat
		gaps = append(gaps, gap)
		fmt.Printf(" %9.1f %6.2f%%\n", sum, 100*gap)
		m["trace.path_gap_pct."+opNames[k]] = metric{100 * gap, "%"}
	}
	return m, gaps, t.unlinked
}

// counterMetrics adds the fleet-counter metrics over the traced phase.
func counterMetrics(m map[string]metric, c0, c1 counterSnap, p *phaseResult) {
	updates := float64(max(len(p.opLat[opUpdate]), 1))
	pages := float64(max(p.completed, 1))
	d := func(a, b int64) float64 { return float64(b - a) }
	lookups := d(c0.hits+c0.misses, c1.hits+c1.misses)
	m["cache.hit_ratio"] = metric{d(c0.hits, c1.hits) / math.Max(lookups, 1), "ratio"}
	m["cache.invalidations_per_update"] = metric{d(c0.invalidations, c1.invalidations) / updates, "count"}
	m["cache.buckets_visited_per_update"] = metric{d(c0.bucketsVisited, c1.bucketsVisited) / updates, "count"}
	m["cache.bucket_walks_per_update"] = metric{d(c0.walks, c1.walks) / updates, "count"}
	m["cache.entries"] = metric{float64(c1.entries), "count"}
	m["pipeline.coalesced_misses"] = metric{d(c0.coalesced, c1.coalesced), "count"}
	busiest := 0.0
	for i := range c1.nodeQueries {
		busiest = math.Max(busiest, d(c0.nodeQueries[i], c1.nodeQueries[i]))
	}
	m["node.max_share"] = metric{busiest / math.Max(lookups, 1), "ratio"}
	fanUpdates := math.Max(d(c0.fanUpdates, c1.fanUpdates), 1)
	m["router.fanout_sent_per_update"] = metric{d(c0.fanSent, c1.fanSent) / fanUpdates, "count"}
	m["router.fanout_skipped_per_update"] = metric{d(c0.skipped, c1.skipped) / fanUpdates, "count"}
	m["router.broadcasts_per_update"] = metric{d(c0.broadcasts, c1.broadcasts) / fanUpdates, "ratio"}
	m["router.query_retries"] = metric{d(c0.retries, c1.retries), "count"}
	m["router.proxy_errors"] = metric{d(c0.proxyErrors, c1.proxyErrors), "count"}
	m["home.queries_per_page"] = metric{d(c0.homeQueries, c1.homeQueries) / pages, "count"}
	m["home.updates_per_page"] = metric{d(c0.homeUpdts, c1.homeUpdts) / pages, "count"}
}

func lastSeg(path string) string { return path[strings.LastIndexByte(path, '/')+1:] }
