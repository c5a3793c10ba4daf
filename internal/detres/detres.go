// Package detres implements PBBS-style deterministic reservations — the
// "speculative_for" idiom the handwritten deterministic PBBS programs use
// (paper §4.1): items are processed in rounds over a prefix of a fixed
// priority order; each item reserves the shared locations it needs with a
// priority write (minimum index wins), and items whose reservations all
// held commit. The committed set, and hence the output, is a pure function
// of the input order — independent of thread count.
//
// Reservations reuse the mark words of package marks: each round takes a
// fresh epoch, and item k of a p-item round reserves with slot p-1-k, so the
// maximum word — the WriteMax winner — is the minimum index. Marks of
// earlier rounds read as unowned, so rounds never clear their reservations.
package detres

import (
	"sync/atomic"

	"galois/internal/cachesim"
	"galois/internal/marks"
	"galois/internal/para"
	"galois/internal/stats"
)

// Step defines one speculative item. Reserve runs first (possibly
// repeatedly, in different rounds); it must only read shared state and
// reserve — via the provided Reserver — every location it read or intends
// to write. Commit runs if every reservation held; it applies the item's
// writes and must succeed.
//
// Reserve may return false to abandon the item (already done / nothing to
// do); abandoned items count as committed without calling Commit.
type Step interface {
	Reserve(i int, r *Reserver) bool
	Commit(i int)
}

// slot is one item's state in a round.
type slot struct {
	idx int
	// lost is set when the item's reservation of some location did not
	// hold: it met a lower index there, or a lower index displaced it
	// later in the round. Cleared before the item reserves anything.
	lost atomic.Bool
	// done: abandoned at reserve time (counts as committed).
	done bool
	// failed: lost a reservation this round.
	failed bool
	// acquired lists the reserved locations for the locality tracer.
	acquired []*marks.Lockable
}

// Reserver reserves locations on behalf of one item.
type Reserver struct {
	s           *slot
	cur         []*slot
	word, floor uint64
	ops         int
	pro         *cachesim.Tracer
	tid         int
}

// Reserve claims l with the current item's priority (minimum item index
// wins). Like writeMarksMax, it never fails early: every location is
// stamped so the final owner is deterministic.
func (r *Reserver) Reserve(l *marks.Lockable) {
	if r.pro != nil {
		r.pro.Touch(r.tid, l)
	}
	owned, prev, ops := l.WriteMax(r.word)
	r.ops += ops
	if !owned {
		r.s.lost.Store(true)
		return
	}
	if prev >= r.floor {
		// Slots are reversed: slot j belongs to cur[len(cur)-1-j].
		r.cur[len(r.cur)-1-marks.Slot(prev)].lost.Store(true)
	}
	if r.pro != nil {
		r.s.acquired = append(r.s.acquired, l)
	}
}

// Options configures For.
type Options struct {
	// Threads is the worker count (<=0 means GOMAXPROCS).
	Threads int
	// Granularity is the round size — the fixed, tunable round
	// parameter of the PBBS codes the paper contrasts with its adaptive
	// window (<=0 means 4096).
	Granularity int
	// Ramp grows the round size with the number of items committed so
	// far: size = max(Granularity, committed/8). Incremental algorithms
	// (Delaunay insertion) need it because early items all conflict;
	// the committed count is thread-independent, so determinism is
	// preserved.
	Ramp bool
	// Profile, if non-nil, records reserved locations for the §5.4
	// locality analysis.
	Profile *cachesim.Tracer
}

// For runs items [0, n) through step under deterministic reservations and
// returns run statistics.
func For(n int, step Step, opt Options) stats.Stats {
	threads := opt.Threads
	if threads <= 0 {
		threads = para.DefaultThreads()
	}
	gran := opt.Granularity
	if gran <= 0 {
		if opt.Ramp {
			// Ramped loops start tiny (everything conflicts until
			// the structure grows) and scale with commits.
			gran = 16
		} else {
			gran = 4096
		}
	}
	col := stats.NewCollector(threads)
	col.Start()

	pending := make([]*slot, n)
	for i := range pending {
		pending[i] = &slot{idx: i}
	}

	committedTotal := 0
	for len(pending) > 0 {
		p := gran
		if opt.Ramp && committedTotal/8 > p {
			p = committedTotal / 8
		}
		p = min(p, len(pending), marks.MaxSlots)
		cur, rest := pending[:p:p], pending[p:]
		epoch := marks.NextEpoch()

		// Reserve phase.
		para.For(threads, p, func(tid, k int) {
			s := cur[k]
			s.lost.Store(false)
			s.acquired = s.acquired[:0]
			res := Reserver{s: s, cur: cur, word: marks.Word(epoch, p-1-k),
				floor: marks.Floor(epoch), pro: opt.Profile, tid: tid}
			s.done = !step.Reserve(s.idx, &res)
			col.AtomicOp(tid, res.ops)
			col.Inspect(tid)
		})

		// Commit phase.
		para.For(threads, p, func(tid, k int) {
			s := cur[k]
			s.failed = !s.done && s.lost.Load()
			if s.failed {
				col.Abort(tid)
				return
			}
			if !s.done {
				step.Commit(s.idx)
				// The write phase revisits the reserved
				// locations (§5.4).
				for _, l := range s.acquired {
					opt.Profile.Touch(tid, l)
				}
			}
			col.Commit(tid)
		})

		// Failed items keep their priority: they precede the untried
		// suffix in the next round.
		var next []*slot
		committed := 0
		for _, s := range cur {
			if s.failed {
				next = append(next, s)
			} else {
				committed++
			}
		}
		col.Round(p, committed)
		committedTotal += committed
		if committed == 0 {
			// The minimum-index item always holds all its
			// reservations.
			panic("detres: round committed nothing")
		}
		pending = append(next, rest...)
	}
	col.Stop()
	return col.Snapshot()
}
