package main

import (
	"math"
	"testing"
)

func TestUnionWithinMergesOverlaps(t *testing.T) {
	ivs := []interval{{30, 60}, {40, 70}, {90, 120}, {5, 8}}
	// [30,70) + [90,100) inside [10,100); [5,8) lies outside.
	if got := unionWithin(ivs, 10, 100); got != 50 {
		t.Errorf("union = %d, want 50", got)
	}
	if got := unionWithin(nil, 0, 10); got != 0 {
		t.Errorf("empty union = %d, want 0", got)
	}
}

// fanOutSpans is one update: the client op, its call to the router, the
// router handler, and two overlapping router→node calls (the exec node and
// a parallel invalidation push), each served by a node handler.
func fanOutSpans() []span {
	return []span{
		{ID: 1, kind: kindOp, Proc: procClient, Op: "update", Start: 0, End: 100},
		{ID: 2, kind: kindRT, Proc: procClient, To: procRouter, Trace: "t", Parent: 1, Start: 10, End: 90},
		{ID: 3, kind: kindHandler, Proc: procRouter, Trace: "t", Parent: 2, Path: "/v1/update", Start: 20, End: 80},
		{ID: 4, kind: kindRT, Proc: procRouter, To: "node0", Trace: "t", Start: 30, End: 60},
		{ID: 5, kind: kindRT, Proc: procRouter, To: "node1", Trace: "t", Start: 40, End: 70},
		{ID: 6, kind: kindHandler, Proc: "node0", Trace: "t", Parent: 4, Path: "/v1/update", Start: 35, End: 55},
		{ID: 7, kind: kindHandler, Proc: "node1", Trace: "t", Parent: 5, Path: "/v1/invalidate", Start: 45, End: 65},
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	tr := buildTree(fanOutSpans())
	want := map[int64]int64{
		1: 20, // op 100 - client call 80
		2: 20, // call 80 - router handler 60
		3: 20, // handler 60 - union of [30,60) and [40,70) = 40, not 30+30
		4: 10, // 30 - 20
		5: 10,
		6: 20, // leaves: all self
		7: 20,
	}
	for i, s := range tr.spans {
		if got := tr.self(i); got != want[s.ID] {
			t.Errorf("span %d: self = %d, want %d", s.ID, got, want[s.ID])
		}
	}
	if tr.opKind["t"] != "update" {
		t.Errorf("trace t op kind = %q, want update", tr.opKind["t"])
	}
}

func TestAttributeSumsToOpLatency(t *testing.T) {
	tr := buildTree(fanOutSpans())
	acc := map[string]float64{}
	tr.attribute(0, 1, acc)
	var sum float64
	for _, v := range acc {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("layer times sum to %v, want the op's 100: %v", sum, acc)
	}
	// The two node calls overlap: they share the 40 units they cover.
	// Each is 30 long, so each subtree is scaled by 40/60.
	for layer, want := range map[string]float64{
		"client": 20, "hop.client_router": 20, "router": 20,
		"hop.router_node": 2 * 10 * 40 / 60.0, "node": 2 * 20 * 40 / 60.0,
	} {
		if math.Abs(acc[layer]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", layer, acc[layer], want)
		}
	}
}
