// Command perfbench is the repository's end-to-end benchmark. Each run
// stands up a fresh fleet in one process — home server, two dsspnode
// nodes and a dssprouter router over loopback HTTP, no capacity gates —
// and drives it open-loop with an application's own session generator
// through the trusted client. It prints the end-to-end metrics of one
// workload (or, with -trace 1, the per-layer split from a traced run),
// then runs a freshness audit of the fleet's cached answers. The last
// line of standard output is a JSON object with the results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"dssp/internal/workload"
)

// workloadSpec is one traffic mix over the fleet.
type workloadSpec struct {
	name     string
	app      string    // bookstore | bboard
	exposure string    // view | blind | method
	rate     float64   // fixed offered rate of the latency metrics, pages/s
	ladder   []float64 // fixed rungs searched for max_pages_per_s, pages/s
	warm     int       // warm-up pages before anything is timed
}

// Workloads. Each moves a different layer of the same fleet; the README
// beside this file says why each was chosen.
var workloads = []workloadSpec{
	{name: "bookstore-view", app: "bookstore", exposure: "view", rate: 100,
		ladder: rungs(400, 40), warm: 2500},
	{name: "bookstore-blind", app: "bookstore", exposure: "blind", rate: 80,
		ladder: rungs(320, 40), warm: 1500},
	{name: "bboard-method", app: "bboard", exposure: "method", rate: 50,
		ladder: rungs(170, 30), warm: 1000},
}

// ladderRungs is the length of every workload's max_pages_per_s ladder.
const ladderRungs = 9

// rungs is a ladder of ladderRungs rates from lo in steps of step pages/s.
func rungs(lo, step float64) []float64 {
	r := make([]float64, ladderRungs)
	for i := range r {
		r[i] = lo + float64(i)*step
	}
	return r
}

// pageLimitMs is the page-latency limit max_pages_per_s must meet at the
// tail percentile: the paper's 2 s limit, scaled to a loopback fleet
// without its 100 ms WAN link. It sits where every workload's tail turns
// steep, a few rungs below saturation, so a rung's verdict follows the
// fleet's capacity; a lower limit falls on the gently rising part of the
// curve, where the seed and the machine's other tenants decide it.
const pageLimitMs = 100

// gated lists the end-to-end metrics the JSON result carries, the ones
// BENCHMARK.json bounds. The rest are printed but left out: across ten
// seeds on a shared 2-vCPU machine their quartiles spread wider than the
// largest allowed regression bound. The p99s rest on a few slow page types
// or statements, whose share varies with the seed. Page latency and
// max_pages_per_s also carry the generator's lateness and the CPU that
// other tenants take, which drifted by a fifth within minutes.
var gated = []string{"setup_s", "hit_p50_us", "miss_p50_us", "update_p50_us", "cpu_us_per_page"}

// setups is how many times a run sets the fleet up; setup_s is the median.
const setups = 21

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed of the sessions' page streams and the arrival schedule")
	seconds := flag.Int("seconds", 20, "measured load time of the run, seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer split instead of the end-to-end metrics")
	out := flag.String("out", filepath.Join(".bench_build", "trace"), "directory the traced run writes its spans to")
	flag.Parse()

	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1, -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	dur := time.Duration(*seconds) * time.Second
	var res *result
	var err error
	if *traced == 1 {
		res, err = runTraced(*spec, *seed, dur, *out)
	} else {
		res, err = runEndToEnd(*spec, *seed, dur)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// setupFleet starts the fleet setups times, keeps the last one and
// returns the median set-up time in seconds.
func setupFleet(spec workloadSpec, tr *tracer) (*fleet, float64, error) {
	var times []float64
	var f *fleet
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		// Each set-up starts from a collected heap, so none pays for the
		// garbage of the one before.
		runtime.GC()
		t0 := time.Now()
		var err error
		if f, err = startFleet(spec, tr); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	runtime.GC()
	return f, median(times), nil
}

// runEndToEnd measures the workload's end-to-end metrics: the fixed-rate
// phase for three quarters of the run, then the max_pages_per_s ladder in
// rungs of a twelfth of it, then the freshness audit.
func runEndToEnd(spec workloadSpec, seed int64, dur time.Duration) (*result, error) {
	f, setupS, err := setupFleet(spec, nil)
	if err != nil {
		return nil, err
	}
	defer f.close()
	cl := f.newClient(nil)
	g := newGenerator(f.bench, clientExec(cl), nil, seed)
	rng := rand.New(rand.NewSource(seed))

	warm := g.run(0, 0, spec.warm, rng)
	fixed := g.run(spec.rate, dur*3/4, 0, rng)
	fmt.Printf("workload %s seed %d: setup %.3fs (median of %d), warm-up %d pages in %.2fs\n",
		spec.name, seed, setupS, setups, spec.warm, warm.wall.Seconds())
	reportPhase("fixed rate", fixed)

	queries := append(warm.queries, fixed.queries...)
	maxRate, ladderQueries := climbLadder(g, spec.ladder, dur/12, rng)
	queries = append(queries, ladderQueries...)

	aud := freshnessAudit(context.Background(), cl, f.db, queries, rng)
	reportAudit(aud)

	m := map[string]metric{
		"setup_s":         {setupS, "s"},
		"max_pages_per_s": {maxRate, "pages/s"},
		"cpu_us_per_page": {float64(fixed.cpu.Microseconds()) / float64(max(fixed.completed, 1)), "us"},
	}
	pageTail, enough := windowedTail(fixed.pageLat, fixed.dur)
	m["page_p50_ms"] = metric{median(values(fixed.pageLat)), "ms"}
	m["page_p99_ms"] = metric{pageTail, "ms"}
	for k := 0; k < numOpKinds; k++ {
		t, ok := windowedTail(fixed.opLat[k], fixed.dur)
		enough = enough && ok
		m[opNames[k]+"_p50_us"] = metric{median(values(fixed.opLat[k])), "us"}
		m[opNames[k]+"_p99_us"] = metric{t, "us"}
	}
	m["failed_ratio"] = metric{ratio(fixed.failed, fixed.attempted), "ratio"}
	m["stale_reads"] = metric{float64(aud.stale), "count"}
	printMetrics(m)
	res := &result{
		Correct:   enough && !fixed.grew && aud.errors == 0 && aud.checked > 0 && aud.stale == 0,
		Attempted: fixed.attempted,
		Failed:    fixed.failed,
		Metrics:   map[string]metric{},
	}
	for _, name := range gated {
		res.Metrics[name] = m[name]
	}
	return res, nil
}

// climbLadder finds max_pages_per_s: the highest rung whose page-latency
// tail meets pageLimitMs with no failed op and no growing backlog. Each
// rung runs for step; a rung that fails is run once more before it counts
// as failed, so a burst of CPU taken by other tenants of the machine does
// not end the climb. The walk starts at the middle rung and goes up while
// rungs pass, or down until one does.
func climbLadder(g *generator, ladder []float64, step time.Duration, rng *rand.Rand) (float64, []workload.Op) {
	mid := len(ladder) / 2
	var queries []workload.Op
	try := func(i int) bool {
		for attempt := 0; attempt < 2; attempt++ {
			p := g.run(ladder[i], step, 0, rng)
			queries = append(queries, p.queries...)
			tail, ok := windowedTail(p.pageLat, step)
			pass := ok && !p.grew && p.failed == 0 && tail <= pageLimitMs
			fmt.Printf("ladder %6.0f pages/s: completed %d/%d, page tail %.2f ms, backlog grew %v -> %s\n",
				ladder[i], p.completed, p.offered, tail, p.grew, passFail(pass))
			if pass {
				return true
			}
		}
		return false
	}
	if try(mid) {
		best := ladder[mid]
		for i := mid + 1; i < len(ladder) && try(i); i++ {
			best = ladder[i]
		}
		return best, queries
	}
	for i := mid - 1; i >= 0; i-- {
		if try(i) {
			return ladder[i], queries
		}
	}
	return 0, queries
}

func passFail(ok bool) string {
	if ok {
		return "pass"
	}
	return "FAIL"
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// reportPhase prints a phase's sample counts, generator guard and
// latency summaries.
func reportPhase(label string, p *phaseResult) {
	late := summarize(p.lateness)
	lt, _, _ := late.tail()
	lateMax := 0.0
	if late.n() > 0 {
		lateMax = late.sorted[late.n()-1]
	}
	fmt.Printf("%s %.0f pages/s: completed %d of %d offered pages in %.2fs, backlog grew %v, generator lateness tail %.3f ms max %.3f ms\n",
		label, p.rate, p.completed, p.offered, p.wall.Seconds(), p.grew, lt, lateMax)
	line := func(name string, ss []sample, unit string) {
		s := summarize(values(ss))
		t, q, _ := s.tail()
		wt, _ := windowedTail(ss, p.dur)
		fmt.Printf("  %-6s n=%-6d p50 %9.3f %s  p%.2f %9.3f %s  windowed tail %9.3f %s\n",
			name, s.n(), s.p50(), unit, 100*q, t, unit, wt, unit)
	}
	line("page", p.pageLat, "ms")
	for k := 0; k < numOpKinds; k++ {
		line(opNames[k], p.opLat[k], "us")
	}
}

func reportAudit(a auditResult) {
	fmt.Printf("freshness audit: %d distinct queries replayed, %d stale, %d errors\n", a.checked, a.stale, a.errors)
	for _, s := range a.samples {
		fmt.Println("  stale:", s)
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%s %.6g %s\n", n, m[n].Value, m[n].Unit)
	}
}
