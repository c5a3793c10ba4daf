package core

import (
	"sync/atomic"

	"galois/internal/marks"
	"galois/internal/stats"
)

// detTask is the scheduler-side record for one task in the current
// generation. Its mark word is not stored: it is derived from the round's
// epoch and the task's slot in the round's window (see package marks). The
// children slice is per-task scratch whose capacity survives arena
// recycling, which is what makes a reused engine's steady state
// allocation-free.
type detTask[T any] struct {
	item T
	// id is the task's position in the generation's deterministic order
	// (§3.2), the parent half of its children's sort keys.
	id uint64
	// prevented is set when another task displaced one of this task's
	// marks, or this task lost a location to a higher word, so it cannot
	// be part of the round's independent set — the flag of the
	// continuation optimization (§3.3). The task clears it at the start of
	// its own inspect, before writing any mark, and a stealer only flags a
	// mark written after that, so no flag write is lost.
	prevented atomic.Bool
	// acquired is the inspected neighborhood, recorded only for the
	// locality tracer (Options.Profile).
	acquired []*marks.Lockable
	commitFn func(*Ctx[T])
	children []child[T]
	// failed records this round's outcome: the task was not in the
	// selected independent set and is retried next round.
	failed bool
}

// runDeterministic is the DIG scheduler of Figure 2, phase-structured over
// the engine's retained state. Tasks execute in generations: the initial
// tasks form generation zero; tasks created during a generation are
// collected by the commitCollector, sorted by their deterministic keys, and
// form the next generation (todo/next in the pseudocode). The whole
// generation loop — formation, rounds, gather, sort — runs inside one
// worker region (roundExecutor.workerLoop), so generation boundaries cost a
// barrier instead of a pool fork/join and the coordination steps run as
// barrier callbacks. All storage — arenas, contexts, children scratch, sort
// scratch, the executor itself — comes from the engine and is returned to
// it, so repeated runs on one engine allocate (near) nothing.
func runDeterministic[T any](e *Engine, st *engState[T], items []T, body func(*Ctx[T], T), opt Options, col *stats.Collector) {
	nthreads := opt.Threads
	// Profiled runs execute single-threaded: the cachesim tracer orders
	// accesses by arrival, and only a serial run makes that order a pure
	// function of the schedule — thread-invariant and machine-invariant,
	// which is what the §5.4 locality model claims to measure. (The old
	// dynamic chunk claiming only delivered that on GOMAXPROCS=1, where the
	// first-scheduled worker drained every chunk; static owner-computes
	// ranges genuinely interleave, so the serialization must be explicit.)
	// Committed output is unchanged by the portability property; worker
	// count never reaches it.
	if opt.Profile != nil {
		nthreads = 1
	}
	met := e.metricsFor(opt.Metrics)

	st.ensure(nthreads)
	for _, ctx := range st.ctxs[:nthreads] {
		ctx.prepare(nthreads, true, col, opt, met)
	}

	r := st.exec
	if r == nil {
		r = newRoundExecutor(st)
		st.exec = r
	}
	r.opt = opt
	r.body = body
	r.ctxs = st.ctxs
	r.col = col
	r.met = met
	r.sink = opt.Sink
	r.nthreads = nthreads
	r.cc = &st.commit
	st.commit.ensureLanes(nthreads)
	r.bar = e.barrier(nthreads)
	r.barCrossings, r.barMark = 0, 0
	r.genIdx = 0
	r.runDone = false
	r.gen = generation[T]{arena: st.free.take(len(items))}
	r.formItems, r.formChildren = items, nil
	r.formN = len(items)
	r.beginGeneration()
	r.runAll(e.pool)
	st.free.put(r.gen.arena)
	r.release()

	// inspectTask/execTask swap task-owned scratch through the contexts, so
	// after the run each ctx still aliases the last task buffer it touched.
	// Those buffers live in the generation arena and are handed out to
	// *other* workers on the next run (a retried task moves between
	// workers), and the nondeterministic scheduler treats a leftover
	// ctx.acquired/children as private scratch ([:0] + append). A surviving
	// alias therefore lets two workers grow one backing array concurrently.
	// Sever the aliases here; the capacity stays with the arena tasks.
	for _, ctx := range st.ctxs[:nthreads] {
		ctx.acquired = nil
		ctx.children = nil
	}
}

// inspectTask runs one task up to (through) its failsafe point in inspect
// mode, performing writeMarksMax over its neighborhood. With the
// continuation optimization the registered commit closure and any phase-1
// children are retained for resumption; without it they are discarded and
// the commit phase re-executes the body.
func inspectTask[T any](ctx *Ctx[T], t *detTask[T], word uint64, body func(*Ctx[T], T), tid int, keepCont bool) {
	// Clear last round's outcome before writing any marks: stealers only
	// flag this task after its first mark write, so no flag update can be
	// lost (see detTask.prevented).
	t.prevented.Store(false)
	ctx.reset(tid, modeInspect)
	ctx.id, ctx.word = t.id, word
	ctx.acquired = t.acquired[:0]
	ctx.children = t.children[:0]
	ctx.runBody(body, t.item)
	t.acquired = ctx.acquired
	if keepCont {
		t.commitFn = ctx.commitFn
		t.children = ctx.children
	} else {
		t.commitFn = nil
		t.children = ctx.children[:0]
	}
	ctx.flushOps()
	ctx.col.Inspect(tid)
}

// execTask decides whether t, inspected under mark word word, is in the
// round's independent set and, if so, commits it. Its marks stay where they
// are: the next round's epoch makes them read as unowned.
func execTask[T any](ctx *Ctx[T], t *detTask[T], word uint64, body func(*Ctx[T], T), tid int, continuation bool) {
	// Two branches below (prevented, and committed-without-commitFn) never
	// reset the ctx, yet the epilogue flushes the atomic-op count through
	// ctx.tid-sharded collector slots. ctx 0 is shared between worker 0's
	// parallel phases and the batched serial rounds any worker may drain
	// inside a coordination callback, so a ctx can reach
	// exec carrying another caller's tid and would flush into the wrong
	// shard. Pin the tid up front.
	ctx.tid = tid
	if continuation {
		// §3.3: the prevented flag subsumes mark re-validation — it
		// is set iff some location of t ended up owned by a higher id.
		if t.prevented.Load() {
			t.failed = true
			ctx.col.Abort(tid)
		} else {
			t.failed = false
			if t.commitFn != nil {
				ctx.reset(tid, modeInspect)
				ctx.id = t.id
				ctx.children = t.children
				ctx.nchild = childMax(t.children)
				ctx.inCommit = true
				t.commitFn(ctx)
				ctx.inCommit = false
				t.children = ctx.children
				ctx.traceCommitTouches(t.acquired)
			}
			ctx.col.Commit(tid)
		}
	} else {
		// Baseline (§3.2): re-execute from the beginning; Acquire
		// validates that each mark still holds this task's word and
		// unwinds on the first mismatch. Pushes go to the ctx-owned
		// scratch buffer (see Ctx.scratch), reclaimed below.
		ctx.reset(tid, modeValidate)
		ctx.id, ctx.word = t.id, word
		ctx.children = ctx.scratch[:0]
		if conflicted := ctx.runBody(body, t.item); conflicted {
			ctx.scratch = ctx.children
			t.failed = true
			ctx.col.Abort(tid)
		} else {
			t.failed = false
			if ctx.commitFn != nil {
				ctx.inCommit = true
				ctx.commitFn(ctx)
				ctx.inCommit = false
			}
			t.children = append(t.children[:0], ctx.children...)
			ctx.scratch = ctx.children
			ctx.col.Commit(tid)
		}
	}
	ctx.flushOps()
	if !t.failed {
		for range t.children {
			ctx.col.Push(tid)
		}
	}
}

// childMax returns the largest creation index among cs, so that pushes from
// the commit closure continue the parent's (id, k) sequence.
func childMax[T any](cs []child[T]) uint64 {
	var m uint64
	for i := range cs {
		if cs[i].k > m {
			m = cs[i].k
		}
	}
	return m
}
