package core

import (
	"fmt"
	"sync"
	"testing"

	"galois/internal/marks"
	"galois/internal/obs"
	"galois/internal/rng"
)

// tracedOrderSensitive runs an order-sensitive conflict workload (with
// dynamically created children) under the given options with a trace
// attached, returning the cell fingerprint and the canonical event lines.
// The workload covers both round pipelines when driven with a large
// initial window: early rounds exceed serialSpan×nthreads (parallel
// static-range phases with fused gather), and conflict-driven shrinking
// plus generation tails drop rounds into the batched serial path.
func tracedOrderSensitive(t *testing.T, ntasks int, opt Options) (uint64, []string) {
	t.Helper()
	const ncells = 48
	cells := make([]*cell, ncells)
	for i := range cells {
		cells[i] = &cell{}
	}
	r := rng.New(42)
	type task struct {
		id    uint64
		a, b  int
		depth int
	}
	items := make([]task, ntasks)
	for i := range items {
		items[i] = task{id: uint64(i + 1), a: r.Intn(ncells), b: r.Intn(ncells)}
	}
	tr := obs.NewTrace(opt.Threads)
	opt.Sink = tr
	st := ForEach(items, func(ctx *Ctx[task], tk task) {
		ca, cb := cells[tk.a], cells[tk.b]
		ctx.Acquire(&ca.Lockable)
		ctx.Acquire(&cb.Lockable)
		if tk.depth < 1 && tk.id%5 == 0 {
			ctx.Push(task{id: tk.id * 31, a: tk.b, b: tk.a, depth: tk.depth + 1})
		}
		ctx.OnCommit(func(*Ctx[task]) {
			ca.value = ca.value*31 + tk.id
			cb.value = cb.value*37 + tk.id
		})
	}, opt)
	want := uint64(ntasks + ntasks/5)
	if st.Commits != want {
		t.Fatalf("commits = %d, want %d", st.Commits, want)
	}
	return fingerprintCells(cells), tr.CanonicalLines()
}

// TestParallelCoordinatorMatchesSerialOracle is the differential claim of
// the fused round pipeline: for every pipeline mix — parallel rounds on
// static owner-computes ranges with gather fused into execute, and batched
// serial rounds drained inside one barrier callback — the default pipeline
// commits a byte-identical fingerprint AND an identical canonical event
// sequence to the serial worker-0 oracle, across thread counts and with
// and without the continuation optimization.
func TestParallelCoordinatorMatchesSerialOracle(t *testing.T) {
	const ntasks = 3000
	for _, winInit := range []int{0, 4096} {
		for _, cont := range []bool{true, false} {
			// The oracle's output is thread-invariant (portability), so one
			// serial-coordinator reference per configuration suffices.
			refOpt := optsFor(Deterministic, 2, func(o *Options) {
				o.Continuation = cont
				o.WindowInit = winInit
				o.SerialCoordinator = true
			})
			refFP, refEvents := tracedOrderSensitive(t, ntasks, refOpt)
			for _, threads := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("win=%d/cont=%v/t%d", winInit, cont, threads), func(t *testing.T) {
					opt := optsFor(Deterministic, threads, func(o *Options) {
						o.Continuation = cont
						o.WindowInit = winInit
					})
					fp, events := tracedOrderSensitive(t, ntasks, opt)
					if fp != refFP {
						t.Fatalf("fingerprint %#x, serial oracle %#x", fp, refFP)
					}
					if len(events) != len(refEvents) {
						t.Fatalf("%d events, serial oracle %d", len(events), len(refEvents))
					}
					for i := range events {
						if events[i] != refEvents[i] {
							t.Fatalf("event %d = %q, serial oracle %q", i, events[i], refEvents[i])
						}
					}
				})
			}
		}
	}
}

// TestSerialFastPathPinnedEvents pins the exact canonical event sequence of
// a run whose only round is sub-parallel (w <= nthreads, the serial fast
// path), and checks the sequence is identical across thread counts and
// under the serial-coordinator oracle — the fast path may skip the claim
// counters and the scan, but not a single structural event.
func TestSerialFastPathPinnedEvents(t *testing.T) {
	want := []string{
		"run-start sched=1 items=2",
		"gen-start gen=0 round=0 args=2,0,0,0",
		"round-start gen=0 round=0 args=2,0,0,0",
		"phases gen=0 round=0",
		"round-end gen=0 round=0 args=2,2,0,0",
		"suspend gen=0 round=0 args=2,0,0,0",
		"resume gen=0 round=0 args=2,0,0,0",
		"window gen=0 round=0 args=16,32,1000,1",
		"gen-end gen=0 round=0 args=0,0,0,0",
		"run-end gen=0 round=0 args=2,0,1,0",
	}
	var c1, c2 cell
	for _, threads := range []int{1, 2, 4, 8} {
		for _, serialCoord := range []bool{false, true} {
			t.Run(fmt.Sprintf("t%d/oracle=%v", threads, serialCoord), func(t *testing.T) {
				tr := obs.NewTrace(threads)
				ForEach([]int{0, 1}, func(ctx *Ctx[int], i int) {
					c := &c1
					if i == 1 {
						c = &c2
					}
					ctx.Acquire(&c.Lockable)
					ctx.OnCommit(func(*Ctx[int]) { c.value++ })
				}, optsFor(Deterministic, threads, func(o *Options) {
					o.Sink = tr
					o.SerialCoordinator = serialCoord
				}))
				got := tr.CanonicalLines()
				if len(got) != len(want) {
					t.Fatalf("event lines = %q, want %q", got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("event %d = %q, want %q", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestForcedConflictSerialFallback drives the scheduler's degenerate case:
// every task acquires one shared cell, so each round commits exactly one
// task and the window policy shrinks to its floor. Those tiny rounds all
// fall below serialSpan×nthreads, forcing the batched serial path to carry
// essentially the whole run at every thread count — the deterministic
// fallback when contention defeats parallelism. The run must commit the
// same fingerprint and canonical event sequence as the unbatched serial
// oracle, and the order-sensitive cell value pins that the one-commit
// rounds happened in deterministic id order.
func TestForcedConflictSerialFallback(t *testing.T) {
	const ntasks = 60
	items := make([]int, ntasks)
	for i := range items {
		items[i] = i
	}
	run := func(threads int, serialCoord bool, cont bool) (uint64, []string) {
		var c cell
		tr := obs.NewTrace(threads)
		st := ForEach(items, func(ctx *Ctx[int], i int) {
			ctx.Acquire(&c.Lockable)
			ctx.OnCommit(func(*Ctx[int]) { c.value = c.value*31 + uint64(i+1) })
		}, optsFor(Deterministic, threads, func(o *Options) {
			o.Continuation = cont
			o.Sink = tr
			o.SerialCoordinator = serialCoord
		}))
		if st.Commits != ntasks {
			t.Fatalf("commits = %d, want %d", st.Commits, ntasks)
		}
		if st.Aborts == 0 {
			t.Fatal("forced-conflict workload aborted nothing")
		}
		return c.value, tr.CanonicalLines()
	}
	for _, cont := range []bool{true, false} {
		refFP, refEvents := run(2, true, cont)
		for _, threads := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("cont=%v/t%d", cont, threads), func(t *testing.T) {
				fp, events := run(threads, false, cont)
				if fp != refFP {
					t.Fatalf("fingerprint %#x, serial oracle %#x", fp, refFP)
				}
				if len(events) != len(refEvents) {
					t.Fatalf("%d events, serial oracle %d", len(events), len(refEvents))
				}
				for i := range events {
					if events[i] != refEvents[i] {
						t.Fatalf("event %d = %q, serial oracle %q", i, events[i], refEvents[i])
					}
				}
			})
		}
	}
}

// TestWindowSlotOrderIsIDOrder pins the invariant the packed mark word
// relies on: within a round, the slot a task marks with (its index in the
// window) is ascending in its id, so the max word per location is the max
// id of Figure 3. Every inspect records (epoch, slot, id); per epoch, ids
// sorted by slot must be strictly ascending. The workload conflicts, so
// failed tasks re-enter later windows ahead of untried ones, and it runs
// under both round pipelines, the serial oracle and the interleave.
func TestWindowSlotOrderIsIDOrder(t *testing.T) {
	const ncells = 32
	r := rng.New(9)
	type task struct{ a, b int }
	items := make([]task, 3000)
	for i := range items {
		items[i] = task{a: r.Intn(ncells), b: r.Intn(ncells)}
	}
	variants := []func(*Options){
		func(o *Options) {},
		func(o *Options) { o.Continuation = false },
		func(o *Options) { o.SerialCoordinator = true },
		func(o *Options) { o.LocalityInterleave = true; o.WindowInit = 256 },
	}
	for vi, v := range variants {
		for _, threads := range []int{1, 2, 4} {
			cells := make([]*cell, ncells)
			for i := range cells {
				cells[i] = &cell{}
			}
			var mu sync.Mutex
			byEpoch := map[uint64]map[int]uint64{}
			ForEach(items, func(ctx *Ctx[task], tk task) {
				if ctx.mode == modeInspect {
					mu.Lock()
					e := ctx.floor // one per round
					if byEpoch[e] == nil {
						byEpoch[e] = map[int]uint64{}
					}
					byEpoch[e][marks.Slot(ctx.word)] = ctx.id
					mu.Unlock()
				}
				ctx.Acquire(&cells[tk.a].Lockable)
				ctx.Acquire(&cells[tk.b].Lockable)
				ctx.OnCommit(func(*Ctx[task]) { cells[tk.a].value++ })
			}, optsFor(Deterministic, threads, v))
			if len(byEpoch) < 2 {
				t.Fatalf("variant %d t%d: %d rounds, want a multi-round run", vi, threads, len(byEpoch))
			}
			for e, ids := range byEpoch {
				for slot := 0; slot < len(ids); slot++ {
					id, ok := ids[slot]
					if !ok {
						t.Fatalf("variant %d t%d floor %#x: slots not dense at %d", vi, threads, e, slot)
					}
					if slot > 0 && ids[slot-1] >= id {
						t.Fatalf("variant %d t%d floor %#x: slot %d id %d after id %d",
							vi, threads, e, slot, id, ids[slot-1])
					}
				}
			}
		}
	}
}
