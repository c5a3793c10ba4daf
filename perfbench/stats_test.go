package main

import (
	"errors"
	"math"
	"net/http"
	"testing"

	"galois/internal/serve"
)

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) in CPython.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7, 1, 4}, 1, 4, 7},
		{[]float64{9}, 9, 9, 9},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3}); got != 3 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %v", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := percentile(xs, 0.95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := percentile(xs, 0.5); got != 100 {
		t.Errorf("p50 of 1..200 = %v, want 100", got)
	}
	if got := percentile(xs, 1); got != 200 {
		t.Errorf("p100 of 1..200 = %v, want 200", got)
	}
}

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 0.999, true}, // 10 beyond p99.9
		{9999, 0.99, true},   // p99.9 would leave only 9
		{1000, 0.99, true},
		{200, 0.95, true}, // exactly 10 beyond p95
		{199, 0.9, true},  // 9 beyond p95
		{100, 0.9, true},
		{99, 0.5, true},
		{20, 0.5, true},
		{19, 0, false},
	}
	for _, c := range cases {
		p, ok := highestTail(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("highestTail(%d) = %v,%v want %v,%v", c.n, p, ok, c.want, c.ok)
		}
		if ok && beyond(c.n, p) < minTail {
			t.Errorf("highestTail(%d) = %v leaves %d beyond", c.n, p, beyond(c.n, p))
		}
	}
}

func TestTallyCountsRefusedAndFailedAgainstAttempted(t *testing.T) {
	var tl tally
	tl.add(nil)
	tl.add(nil)
	tl.add(&serve.APIError{Status: http.StatusTooManyRequests})
	tl.add(&serve.APIError{Status: http.StatusBadGateway})
	tl.add(&serve.APIError{Status: http.StatusBadRequest})
	tl.add(errors.New("connection reset"))
	if tl.attempted != 6 || tl.failed() != 4 {
		t.Fatalf("attempted=%d failed=%d, want 6 and 4", tl.attempted, tl.failed())
	}
	for class, want := range map[string]int{okClass: 2, refusedClass: 1, serverClass: 1, rejectedClass: 1, transportClass: 1} {
		if got := tl.byClass[class]; got != want {
			t.Errorf("class %s = %d, want %d", class, got, want)
		}
	}
	if got := tl.errorRatio(); got != 4.0/6 {
		t.Errorf("errorRatio = %v", got)
	}
}

func TestFailedRequestsMissEveryLatencyLimit(t *testing.T) {
	ok := make([]float64, 190)
	for i := range ok {
		ok[i] = 1
	}
	// 190 fast successes and 10 refusals: p95 is still a success, but the
	// refusals fill the whole tail above it.
	xs := latencies(ok, 10)
	if got := percentile(xs, 0.95); got != 1 {
		t.Errorf("p95 = %v, want 1", got)
	}
	if got := percentile(xs, 0.96); !math.IsInf(got, 1) {
		t.Errorf("p96 = %v, want +Inf", got)
	}
	// One more refusal pushes p95 itself past any limit.
	if got := percentile(latencies(ok, 11), 0.95); !math.IsInf(got, 1) {
		t.Errorf("p95 with 11 refusals = %v, want +Inf", got)
	}
}
