package core

import (
	"runtime"
	"sync/atomic"

	"galois/internal/marks"
	"galois/internal/obs"
	"galois/internal/stats"
	"galois/internal/worklist"
)

// obimAdapter binds a priority function to an OBIM worklist.
type obimAdapter[T any] struct {
	obim *worklist.OBIM[T]
	prio func(T) int
}

func (a *obimAdapter[T]) Push(tid int, item T)  { a.obim.PushPrio(tid, item, a.prio(item)) }
func (a *obimAdapter[T]) Pop(tid int) (T, bool) { return a.obim.Pop(tid) }

// pickWorklist selects the run's worklist, reusing the engine-retained one
// when its kind and size fit. A drained worklist is structurally empty, so
// reuse is invisible to the run; the chunks it accumulated stay allocated,
// which is the reuse win. OBIM worklists are rebuilt per run — they embed
// the run's priority function and bucket count, which may change.
func pickWorklist[T any](st *engState[T], opt Options, nthreads int) interface {
	Push(tid int, item T)
	Pop(tid int) (T, bool)
} {
	switch {
	case opt.Priority != nil:
		fn, ok := opt.Priority.(func(T) int)
		if !ok {
			panic("galois: WithPriority function does not match the loop's item type")
		}
		levels := opt.PriorityLevels
		if levels <= 0 {
			levels = 64
		}
		return &obimAdapter[T]{obim: worklist.NewOBIM[T](nthreads, levels), prio: fn}
	case opt.FIFO:
		if st.fifo == nil || st.fifoThreads < nthreads {
			st.fifo = worklist.NewChunkedFIFO[T](nthreads)
			st.fifoThreads = nthreads
		}
		return st.fifo
	default:
		if st.lifo == nil || st.lifoThreads < nthreads {
			st.lifo = worklist.NewChunkedLIFO[T](nthreads)
			st.lifoThreads = nthreads
		}
		return st.lifo
	}
}

// runNonDeterministic is the speculative scheduler of Figure 1b: each
// worker repeatedly pops an arbitrary task, acquires its neighborhood marks
// with compare-and-set as the body executes, and either commits (running
// the deferred write phase and enqueueing created tasks) or aborts on
// conflict (releasing its marks and retrying the task later). It runs on
// the engine's persistent worker pool and reuses the engine-retained
// contexts and worklist.
func runNonDeterministic[T any](e *Engine, st *engState[T], items []T, body func(*Ctx[T], T), opt Options, col *stats.Collector) {
	nthreads := opt.Threads
	met := e.metricsFor(opt.Metrics)

	st.ensure(nthreads)
	for _, ctx := range st.ctxs[:nthreads] {
		ctx.prepare(nthreads, false, col, opt, met)
	}

	wl := pickWorklist(st, opt, nthreads)

	// Seed the worklist round-robin so workers start with local work and
	// the initial distribution is balanced.
	for i, it := range items {
		wl.Push(i%nthreads, it)
	}

	// pending counts tasks that exist but have not committed. Workers
	// terminate when it reaches zero; while any worker holds a popped
	// task, pending stays positive, so termination detection is exact.
	var pending atomic.Int64
	pending.Store(int64(len(items)))

	// One epoch for the whole run: worker tid marks with Word(epoch, tid),
	// and any word below the epoch's floor — every mark an earlier round
	// or run left behind — reads as unowned.
	epoch := marks.NextEpoch()

	e.pool.Run(nthreads, func(tid int) {
		ctx := st.ctxs[tid]
		// Per-worker tallies for the worker-summary trace event. The
		// event goes to the worker's own lock-free buffer, so emission
		// adds no synchronization between workers.
		var commits, aborts int64
		// Marks only need to be unique per worker for the
		// non-deterministic protocol (§2.1); the id is the parent key
		// of children, which this scheduler ignores.
		ctx.id, ctx.word, ctx.floor = uint64(tid)+1, marks.Word(epoch, tid), marks.Floor(epoch)

		backoff := 0
		for {
			item, ok := wl.Pop(tid)
			if !ok {
				if pending.Load() == 0 {
					emit(opt.Sink, tid, obs.Event{Kind: obs.KindWorker,
						Args: [4]int64{commits, aborts}})
					return
				}
				runtime.Gosched()
				continue
			}

			ctx.reset(tid, modeDirect)
			if conflicted := ctx.runBody(body, item); conflicted {
				// Roll back: release every mark acquired so
				// far and retry the task later (Figure 1b
				// lines 7-8). Cautious tasks performed no
				// shared writes, so no state is restored.
				for _, l := range ctx.acquired {
					ctx.ops += l.Release(ctx.word)
				}
				ctx.flushOps()
				col.Abort(tid)
				aborts++
				wl.Push(tid, item)
				// Brief backoff reduces livelock between
				// symmetric conflicting tasks.
				backoff++
				if backoff > 2 {
					runtime.Gosched()
				}
				continue
			}
			backoff = 0

			// Commit: run the deferred write phase while still
			// holding all neighborhood marks, then publish
			// created tasks, then release.
			if ctx.commitFn != nil {
				ctx.inCommit = true
				ctx.commitFn(ctx)
				ctx.inCommit = false
				ctx.traceCommitTouches(ctx.acquired)
			}
			if n := len(ctx.children); n > 0 {
				pending.Add(int64(n))
				for _, ch := range ctx.children {
					wl.Push(tid, ch.item)
					col.Push(tid)
				}
			}
			for _, l := range ctx.acquired {
				ctx.ops += l.Release(ctx.word)
			}
			ctx.flushOps()
			col.Commit(tid)
			commits++
			pending.Add(-1)
		}
	})
}
