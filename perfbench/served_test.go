package main

import (
	"reflect"
	"testing"
)

func TestClientOpsArePureAndBalanced(t *testing.T) {
	kinds := []string{"bfs", "mis", "sssp", "msf", "dt", "dmr", "pfp"}
	a := clientOps(42, 1, 0, kinds, "dmr", 140)
	if b := clientOps(42, 1, 0, kinds, "dmr", 140); !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, client) gave different request sequences")
	}
	if b := clientOps(42, 0, 0, kinds, "dmr", 140); reflect.DeepEqual(a, b) {
		t.Fatal("clients 0 and 1 got the same request sequence")
	}
	// Another seed changes the inputs, not the structure.
	b := clientOps(43, 1, 0, kinds, "dmr", 140)
	for i := range a {
		same := a[i].kind == b[i].kind && a[i].spec.Kind == b[i].spec.Kind && a[i].spec.Variant == b[i].spec.Variant &&
			a[i].of == b[i].of && (a[i].kind != "job" || a[i].spec.Seed-42 == b[i].spec.Seed-43)
		if !same {
			t.Fatalf("op %d: seed 42 gave %+v, seed 43 %+v", i, a[i], b[i])
		}
	}
	// Another segment repeats the structure and the hot set on fresh inputs
	// of its own.
	c := clientOps(42, 1, 1, kinds, "dmr", 140)
	for i := range a {
		if a[i].kind != c[i].kind || a[i].spec.Kind != c[i].spec.Kind || a[i].of != c[i].of || a[i].batch != c[i].batch {
			t.Fatalf("op %d: segment 0 gave %+v, segment 1 %+v", i, a[i], c[i])
		}
		if hot := a[i].spec.Seed-42 < hotSeeds; a[i].kind == "job" && hot != (a[i].spec.Seed == c[i].spec.Seed) {
			t.Errorf("op %d: seed %d in segment 0, %d in segment 1", i, a[i].spec.Seed, c[i].spec.Seed)
		}
	}
	perKind := map[string]int{}
	var jobs, gn, hot, batches, verifies int
	for i, o := range a {
		switch o.kind {
		case "job":
			jobs++
			perKind[o.spec.Kind]++
			if o.spec.Variant == "g-n" {
				gn++
			}
			if o.spec.Seed-42 < hotSeeds {
				hot++
			}
		case "batch":
			batches++
		case "verify":
			verifies++
			if o.of >= i || a[o.of].kind != "job" || a[o.of].spec.Variant != "g-d" {
				t.Errorf("verify %d targets op %d, not an earlier g-d job", i, o.of)
			}
		}
	}
	for _, k := range kinds {
		if perKind[k] != 20 {
			t.Errorf("kind %s got %d of 140 jobs, want 20", k, perKind[k])
		}
	}
	if jobs != 140 || gn != 35 || hot != 35 || batches != 17 || verifies != 7 {
		t.Errorf("jobs=%d g-n=%d hot=%d batches=%d verifies=%d", jobs, gn, hot, batches, verifies)
	}
	last := a[len(a)-1]
	for _, o := range a {
		if o.kind == "batch" {
			last = o
		}
	}
	if last.batch.AngleCentideg != 3000 {
		t.Errorf("last refine batch at %d centidegrees, want the 3000 maximum", last.batch.AngleCentideg)
	}
}
