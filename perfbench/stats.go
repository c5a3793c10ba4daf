package main

import (
	"errors"
	"math"
	"net/http"
	"sort"

	"galois/internal/serve"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise, not a measurement.
const minTail = 10

// median returns the median of xs (the mean of the middle pair for an even
// count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the mean of xs, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first quartile, median and third quartile of xs
// with the same rule as Python's statistics.quantiles(xs, n=4) (the
// default "exclusive" method), so figures printed here and spreads
// computed from a set of runs agree. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// smallest sample with at least a p share of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-quantile among n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is the number of samples above the nearest-rank p-quantile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentiles are the candidate tail figures, highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// highestTail returns the highest candidate percentile that has at least
// minTail samples beyond it among n samples; ok is false when even the
// median does not.
func highestTail(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= minTail {
			return p, true
		}
	}
	return 0, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// outcome classes of one client request.
const (
	okClass        = "ok"
	refusedClass   = "refused"   // 429: admission queue full
	serverClass    = "5xx"       // 5xx from the router or a backend
	rejectedClass  = "4xx"       // any other non-2xx
	transportClass = "transport" // no HTTP response at all
)

// classify maps a serve.Client error to its outcome class.
func classify(err error) string {
	if err == nil {
		return okClass
	}
	var ae *serve.APIError
	if !errors.As(err, &ae) {
		return transportClass
	}
	switch {
	case ae.Status == http.StatusTooManyRequests:
		return refusedClass
	case ae.Status >= 500:
		return serverClass
	default:
		return rejectedClass
	}
}

// tally counts client requests by outcome. Every request attempted is
// counted once; every class but okClass is a failure.
type tally struct {
	attempted int
	byClass   map[string]int
}

func (t *tally) add(err error) {
	if t.byClass == nil {
		t.byClass = make(map[string]int)
	}
	t.attempted++
	t.byClass[classify(err)]++
}

func (t *tally) failed() int { return t.attempted - t.byClass[okClass] }

// errorRatio is failed over attempted (0 when nothing was attempted).
func (t *tally) errorRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed()) / float64(t.attempted)
}

// latencies returns the samples of the successful requests plus one +Inf
// per failed one: a refused or failed request misses every latency limit,
// so it must sit above every percentile it could affect.
func latencies(okMS []float64, failed int) []float64 {
	out := append([]float64(nil), okMS...)
	for i := 0; i < failed; i++ {
		out = append(out, math.Inf(1))
	}
	return out
}
