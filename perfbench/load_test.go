package main

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"dssp/internal/sqlparse"
	"dssp/internal/storage"
	"dssp/internal/template"
	"dssp/internal/workload"
)

// seqBench's sessions number their pages: every op carries its session
// and page number, so the executor can check order and exclusivity.
type seqBench struct{ sessions int }

func (*seqBench) Name() string                                 { return "seq" }
func (*seqBench) App() *template.App                           { return nil }
func (*seqBench) Compulsory() map[string]template.Exposure     { return nil }
func (*seqBench) Populate(*storage.Database, *rand.Rand) error { return nil }
func (b *seqBench) NewSession(*rand.Rand) workload.Session {
	b.sessions++
	return &seqSession{id: b.sessions}
}

var seqTmpl = &template.Template{ID: "Q", Kind: template.KQuery}

type seqSession struct{ id, page int }

func (s *seqSession) NextPage() []workload.Op {
	s.page++
	op := workload.Op{Template: seqTmpl, Params: []sqlparse.Value{sqlparse.IntVal(int64(s.id)), sqlparse.IntVal(int64(s.page))}}
	return []workload.Op{op, op, op}
}

func TestDispatchKeepsSessionPagesInOrder(t *testing.T) {
	var mu sync.Mutex
	busy := map[int64]bool{}  // session -> page in flight
	last := map[int64]int64{} // session -> last page seen
	opsInPage := map[int64]int{}
	var errs []string
	exec := func(_ context.Context, op workload.Op) (int, error) {
		sess, pg := op.Params[0].Int, op.Params[1].Int
		mu.Lock()
		switch {
		case opsInPage[sess] == 0 && busy[sess]:
			errs = append(errs, "session dispatched while busy")
		case opsInPage[sess] == 0 && pg != last[sess]+1:
			errs = append(errs, "session pages out of order")
		}
		busy[sess] = true
		last[sess] = pg
		if opsInPage[sess]++; opsInPage[sess] == 3 {
			opsInPage[sess] = 0
			busy[sess] = false
		}
		mu.Unlock()
		time.Sleep(time.Duration(rand.Intn(50)) * time.Microsecond)
		return opHit, nil
	}
	g := newGenerator(&seqBench{}, exec, nil, 1)
	const pages = 3 * poolSize
	p := g.run(0, 0, pages, rand.New(rand.NewSource(1)))
	if p.completed != pages || p.attempted != 3*pages || p.failed != 0 {
		t.Fatalf("completed %d pages, %d ops (%d failed), want %d pages", p.completed, p.attempted, p.failed, pages)
	}
	if len(errs) > 0 {
		t.Fatalf("%d violations, first: %s", len(errs), errs[0])
	}
	for s := int64(1); s <= poolSize; s++ {
		if last[s] != 3 {
			t.Errorf("session %d ran %d pages, want 3 (page k goes to session k mod pool)", s, last[s])
		}
	}
}

func TestScheduleIsSeededPoisson(t *testing.T) {
	a := schedule(200, 10*time.Second, 0, rand.New(rand.NewSource(7)))
	b := schedule(200, 10*time.Second, 0, rand.New(rand.NewSource(7)))
	if len(a) != len(b) || len(a) < 1800 || len(a) > 2200 {
		t.Fatalf("got %d and %d arrivals, want the same ~2000", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || (i > 0 && a[i] < a[i-1]) || a[i] >= 10*time.Second {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}
