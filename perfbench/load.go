package main

import (
	"context"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"dssp/internal/httpapi"
	"dssp/internal/template"
	"dssp/internal/workload"
)

// poolSize is the number of user sessions. A session has at most one page
// in flight, so a backlog of poolSize pages stalls the generator; that
// far past the knee the run has failed anyway.
const poolSize = 64

// workers is the number of goroutines executing pages, and the number of
// client connections to the router: one per CPU, at most two, so the
// generator cannot out-thread the fleet it measures.
func workers() int { return min(runtime.NumCPU(), 2) }

// Op kinds, as the client sees them.
const (
	opHit = iota
	opMiss
	opUpdate
	numOpKinds
)

var opNames = [numOpKinds]string{"hit", "miss", "update"}

// session is one emulated user. idle holds a token while the session has
// no page in flight.
type session struct {
	gen  workload.Session
	idle chan struct{}
}

// page is one web interaction: its session, the time it was due to be
// sent, and its operations, run back to back.
type page struct {
	sess  int
	start time.Time // the phase's start, which sample offsets count from
	due   time.Time
	ops   []workload.Op
}

// sample is one timing and when in its phase it was taken.
type sample struct {
	at time.Duration
	v  float64
}

// generator drives one fleet with a fixed session pool. Page k of a run
// goes to session k mod poolSize, waiting for it to go idle: the
// assignment, and so every page's content, depends only on the seed.
type generator struct {
	sessions []*session
	next     int
	exec     func(context.Context, workload.Op) (int, error)
	tr       *tracer
}

func newGenerator(b workload.Benchmark, exec func(context.Context, workload.Op) (int, error), tr *tracer, seed int64) *generator {
	g := &generator{exec: exec, tr: tr}
	for i := 0; i < poolSize; i++ {
		s := &session{gen: b.NewSession(rand.New(rand.NewSource(seed*1000003 + int64(i)))), idle: make(chan struct{}, 1)}
		s.idle <- struct{}{}
		g.sessions = append(g.sessions, s)
	}
	return g
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	rate      float64
	offered   int
	completed int           // pages finished while the schedule kept up
	dur       time.Duration // the schedule's length
	wall      time.Duration
	pageLat   []sample             // ms from due time, pages that finished in time
	opLat     [numOpKinds][]sample // µs per call
	attempted int                  // ops
	failed    int                  // ops that errored, or belonged to pages of a run whose backlog grew
	lateness  []float64            // ms the generator sent each page after its due time
	grew      bool                 // backlog still growing at the end of the schedule
	cpu       time.Duration        // process user+sys CPU over the phase
	res       runtimeDelta         // allocator and GC over the phase
	queries   []workload.Op        // every query op issued, for the freshness audit
}

// worker state local to one goroutine, merged after the phase.
type workerOut struct {
	pageLat   []sample
	pageEnd   []time.Time
	pageDue   []time.Time
	pageOps   []int
	opLat     [numOpKinds][]sample
	attempted int
	failed    int
	queries   []workload.Op
}

// schedule returns the send offsets of a phase: Poisson arrivals at rate
// pages/s over dur, from rng. rate 0 means n pages all due at once.
func schedule(rate float64, dur time.Duration, n int, rng *rand.Rand) []time.Duration {
	if rate <= 0 {
		return make([]time.Duration, n)
	}
	var offs []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= dur {
			return offs
		}
		offs = append(offs, off)
	}
}

// run drives one phase open-loop: pages are sent at their due times
// whether or not earlier pages have finished, and page latency counts
// from the due time, so a stall charges every page it delays.
func (g *generator) run(rate float64, dur time.Duration, n int, rng *rand.Rand) *phaseResult {
	offs := schedule(rate, dur, n, rng)
	nw := workers()
	// Each session has at most one page queued or running, so poolSize
	// slots never block the generator.
	queue := make(chan page, poolSize)
	outs := make([]workerOut, nw)
	done := make(chan struct{})
	for w := 0; w < nw; w++ {
		go func(out *workerOut) {
			defer func() { done <- struct{}{} }()
			g.work(queue, out)
		}(&outs[w])
	}

	res := &phaseResult{rate: rate, dur: dur, offered: len(offs)}
	rt0 := readRuntime()
	cpu0 := cpuTime()
	start := time.Now()
	for _, off := range offs {
		due := start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		res.lateness = append(res.lateness, float64(time.Since(due))/1e6)
		si := g.next % poolSize
		g.next++
		s := g.sessions[si]
		<-s.idle
		queue <- page{sess: si, start: start, due: due, ops: s.gen.NextPage()}
	}
	close(queue)
	for w := 0; w < nw; w++ {
		<-done
	}
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.res = readRuntime().sub(rt0)

	var dues, ends []time.Time
	for i := range outs {
		o := &outs[i]
		dues = append(dues, o.pageDue...)
		ends = append(ends, o.pageEnd...)
		for k := range o.opLat {
			res.opLat[k] = append(res.opLat[k], o.opLat[k]...)
		}
		res.attempted += o.attempted
		res.failed += o.failed
		res.queries = append(res.queries, o.queries...)
	}
	schedEnd := start.Add(dur)
	if rate > 0 {
		res.grew = backlogGrew(dues, ends, start, schedEnd, rate)
	}
	for i := range outs {
		o := &outs[i]
		for j, lat := range o.pageLat {
			if res.grew && o.pageEnd[j].After(schedEnd) {
				// A page the schedule left behind is a failure of the
				// offered rate, not a latency sample.
				res.failed += o.pageOps[j]
				continue
			}
			res.pageLat = append(res.pageLat, lat)
		}
	}
	res.completed = len(res.pageLat)
	return res
}

// backlogGrew reports whether the offered rate outran the fleet: at the
// end of the schedule more than a quarter second of arrivals (over twice
// the page-latency limit) is still unfinished, and the backlog is no
// smaller than at the schedule's midpoint.
func backlogGrew(dues, ends []time.Time, start, end time.Time, rate float64) bool {
	backlog := func(t time.Time) int {
		n := 0
		for i := range dues {
			if !dues[i].After(t) && ends[i].After(t) {
				n++
			}
		}
		return n
	}
	slack := max(2*workers(), int(rate/4))
	last := backlog(end)
	return last > slack && last >= backlog(start.Add(end.Sub(start)/2))
}

func (g *generator) work(queue <-chan page, out *workerOut) {
	ctx := context.Background()
	for p := range queue {
		for _, op := range p.ops {
			octx, id, ts := g.tr.startOp(ctx)
			t0 := time.Now()
			kind, err := g.exec(octx, op)
			lat := time.Since(t0)
			g.tr.endOp(id, ts, opNames[kind])
			if op.Template.Kind == template.KQuery {
				out.queries = append(out.queries, op)
			}
			out.attempted++
			if err != nil {
				out.failed++
				continue
			}
			out.opLat[kind] = append(out.opLat[kind], sample{t0.Sub(p.start), float64(lat) / 1e3})
		}
		end := time.Now()
		out.pageLat = append(out.pageLat, sample{p.due.Sub(p.start), float64(end.Sub(p.due)) / 1e6})
		out.pageEnd = append(out.pageEnd, end)
		out.pageDue = append(out.pageDue, p.due)
		out.pageOps = append(out.pageOps, len(p.ops))
		g.sessions[p.sess].idle <- struct{}{}
	}
}

// clientExec runs ops through the trusted client, classing each query
// hit or miss by the reply's hit flag.
func clientExec(c *httpapi.Client) func(context.Context, workload.Op) (int, error) {
	return func(ctx context.Context, op workload.Op) (int, error) {
		args := make([]interface{}, len(op.Params))
		for i, v := range op.Params {
			args[i] = v
		}
		if op.Template.Kind != template.KQuery {
			_, _, err := c.Update(ctx, op.Template, args...)
			return opUpdate, err
		}
		res, err := c.Query(ctx, op.Template, args...)
		if err == nil && res.Outcome.Hit {
			return opHit, nil
		}
		return opMiss, err
	}
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeDelta is allocator and GC activity between two readings.
type runtimeDelta struct {
	allocs, allocBytes float64
	gcCPU, totalCPU    float64 // CPU-seconds
	idleCPU            float64
}

// busyCPU is the CPU time the Go program actually used.
func (d runtimeDelta) busyCPU() float64 { return d.totalCPU - d.idleCPU }

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeDelta{allocs: val(0), allocBytes: val(1), gcCPU: val(2), totalCPU: val(3), idleCPU: val(4)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocs - b.allocs, a.allocBytes - b.allocBytes, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.idleCPU - b.idleCPU}
}
