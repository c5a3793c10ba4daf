package main

import (
	"context"
	"testing"
)

func TestCoveredCountsOverlapOnce(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{10, 20}}, 10},
		{0, 100, [][2]int64{{10, 30}, {20, 40}}, 30},           // overlap
		{0, 100, [][2]int64{{20, 40}, {10, 30}, {25, 35}}, 30}, // unsorted, nested
		{0, 100, [][2]int64{{10, 20}, {50, 60}}, 20},           // disjoint
		{0, 100, [][2]int64{{-10, 5}, {95, 120}}, 10},          // clipped to parent
		{0, 100, [][2]int64{{10, 20}, {20, 30}}, 20},           // touching
		{0, 100, [][2]int64{{150, 200}}, 0},                    // outside
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d,%d,%v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 70}, // overlaps a
		{ID: 4, Parent: 2, Name: "a.child", Start: 15, End: 25},
		{ID: 5, Name: "root2", Start: 200, End: 300},
	}
	kids := children(spans)
	if got := selfTime(&spans[0], kids); got != 40 {
		t.Errorf("root self = %d, want 40 (children cover 10..70 once)", got)
	}
	if got := selfTime(&spans[1], kids); got != 30 {
		t.Errorf("a self = %d, want 30", got)
	}
	if got := selfTime(&spans[4], kids); got != 100 {
		t.Errorf("childless root self = %d, want 100", got)
	}
	// Roots last 200 ns; 40 + 100 of it is covered by no child.
	if got := unattributedShare(spans); got != 140.0/200 {
		t.Errorf("unattributedShare = %v, want 0.7", got)
	}
}

func TestTracerParentsThroughContext(t *testing.T) {
	tr := newTracer()
	root := tr.root("client.job")
	ctx := withRef(context.Background(), root)
	parent, ok := refFrom(ctx)
	if !ok || parent != root {
		t.Fatalf("refFrom = %v,%v", parent, ok)
	}
	child := tr.begin("router.handle", parent)
	tr.end(child, map[string]int64{"n": 1})
	tr.end(root, nil)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Req != spans[0].Req || spans[0].Req == 0 {
		t.Fatalf("spans not chained by parent and request id: %+v", spans)
	}
	if spans[1].Counts["n"] != 1 || spans[0].End < spans[1].End {
		t.Fatalf("span bounds or counts wrong: %+v", spans)
	}
	var off *tracer
	if r := off.root("x"); r != (ref{}) {
		t.Fatalf("nil tracer recorded %v", r)
	}
	off.end(ref{id: 1}, nil)
}
