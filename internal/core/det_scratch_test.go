package core

import (
	"testing"

	"galois/internal/marks"
	"galois/internal/stats"
)

// TestExecTaskPinsWorkerTid pins the second half of the det-scheduler shard
// fix: the prevented and committed-without-commitFn branches of execTask
// never reset the ctx, and exec chunks are claimed dynamically, so a worker
// can reach its first exec task of a run on a ctx whose tid is still the
// zero value. The epilogue flushes atomic-op counts through
// tid-sharded collector slots, so a stale tid aims the flush at another
// worker's shard — a data race. execTask must pin the tid on entry.
func TestExecTaskPinsWorkerTid(t *testing.T) {
	col := stats.NewCollector(4)
	ctx := &Ctx[int]{}
	ctx.prepare(4, true, col, Defaults(), nil)

	var tsk detTask[int]
	tsk.id = 1
	tsk.prevented.Store(true) // take the no-reset prevented branch
	execTask(ctx, &tsk, marks.Word(marks.NextEpoch(), 0), func(*Ctx[int], int) {}, 3, true)
	if ctx.tid != 3 {
		t.Fatalf("execTask left ctx.tid = %d, want executing worker 3", ctx.tid)
	}

	// Same for the committed-without-commitFn branch.
	ctx2 := &Ctx[int]{}
	ctx2.prepare(4, true, col, Defaults(), nil)
	var tsk2 detTask[int]
	tsk2.id = 2
	execTask(ctx2, &tsk2, marks.Word(marks.NextEpoch(), 1), func(*Ctx[int], int) {}, 2, true)
	if ctx2.tid != 2 {
		t.Fatalf("execTask left ctx.tid = %d, want executing worker 2", ctx2.tid)
	}
}
