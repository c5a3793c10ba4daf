// Package core implements the two Galois schedulers of the paper: the
// non-deterministic speculative scheduler of §2.1 (Figure 1b) and the
// deterministic interference-graph (DIG) scheduler of §3 (Figures 2-3),
// including the §3.3 optimizations. The public API lives in the root
// package galois; core is generic over the task item type.
//
// # Execution protocol
//
// A task body runs under one of three modes (see Ctx):
//
//   - modeDirect (non-deterministic): Acquire locks each location with
//     compare-and-set as the body reads it; a conflict unwinds the body via
//     a panic sentinel, releases the marks, and requeues the task. Because
//     tasks are cautious — no shared writes before the OnCommit closure —
//     unwinding is the entire rollback.
//   - modeInspect (DIG phase 1): Acquire performs writeMarksMax: the
//     highest mark word wins each location, a displaced task of the same
//     round gets its prevented flag set, and losing tasks self-flag but
//     keep marking (the max over a fixed set is order-independent only if
//     every element participates). The cumulative marks are the round's
//     interference graph; nobody mutates shared program state in this
//     phase.
//   - modeValidate (DIG phase 2, baseline): the body re-executes; Acquire
//     asserts that each location still holds the task's word and unwinds
//     on the first mismatch. With the continuation optimization the
//     re-execution is skipped: the prevented flag alone decides, and the
//     closure saved at inspect time resumes.
//
// # Why the prevented flag equals mark validation
//
// Task t fails to own location l at the end of inspect iff some other task
// u of the same round with word(u) > word(t) marked l. Two cases: u marked
// l after t (u's WriteMax displaced t's word, which is at or above the
// round's floor, so u flags window[slot(t)] = t), or before (t observed
// u's word, lost the WriteMax, and self-flagged). Either way t.prevented is
// set; conversely it is only ever set in those two situations — a
// displaced word below the floor belongs to an earlier round and flags
// nobody. So prevented(t) <=> t does not own its whole neighborhood <=> t
// is outside the round's unique independent set. Because the window is in
// id order, word order within a round is id order, and that set is the
// one Figure 2 selects. The spec-conformance property tests (spec_test.go)
// check this equivalence against a direct sequential interpreter of
// Figure 2, with and without the optimization, across thread counts.
//
// # Why the commit phase is race- and determinism-safe
//
// Committed tasks within one round have disjoint neighborhoods (they all
// own everything they touched), so their write phases touch disjoint
// locations. A validating re-execution (baseline mode) can run while other
// tasks commit, but every location it reads it owns — if control flow ever
// reaches a location it does not own, Acquire unwinds it before the value
// is used — so it observes exactly the frozen inspect-time state.
//
// # Mark lifecycle
//
// A mark is one word, epoch<<23 | (slot+1) (package marks). setupRound
// takes a fresh process-wide epoch for every round, and the window task at
// index k marks with slot k. Marks are never cleared: a word of an earlier
// round is below the new round's floor, so it reads as unowned, and the
// first WriteMax of the new round simply overwrites it. The
// non-deterministic scheduler takes one epoch per run and marks with the
// worker id, releasing its marks as tasks commit or abort; whatever a run
// leaves behind is likewise stale to every later round or run. A task
// resets its prevented flag at the start of its own inspect, strictly
// before writing any marks, so no stealer's flag write can be lost.
//
// Slot order is id order because the window is a prefix of the pending
// list, which is in id order: generations are formed in id order, and a
// round's failed tasks are compacted, in window order, in front of the
// untried rest (commit.go). TestWindowSlotOrderIsIDOrder pins this.
//
// # Determinism inventory
//
// The deterministic schedule is a pure function of the input because every
// input to every scheduling decision is: (i) the generation order — the
// caller's slice order, then sorted (parent id, creation index) keys of
// committed pushes, optionally pre-permuted by the deterministic
// interleave; (ii) the window sequence — a pure function of per-round
// commit counts (window.go); (iii) mark resolution — max over a round's
// ids per location, order-independent. Thread count, chunking, stealing
// and timing can change which worker executes what and in which order
// within a phase, but phases are barrier-separated and every cross-phase
// value is one of (i)-(iii).
//
// # Structure and state reuse
//
// The DIG pipeline is phase-structured across four files: generation.go
// owns task storage and deterministic id assignment (generation, backed by
// size-classed recyclable arenas), round.go owns the inspect/selectAndExec
// phase loop and chunked work distribution (roundExecutor), commit.go owns
// the serial end-of-round gather/compact/adapt step (commitCollector), and
// det.go orchestrates the generation lifecycle. Both schedulers run on the
// persistent worker pool of internal/para.
//
// All run state lives in an Engine (engine.go): the pool, barriers, the
// collector and — per item type — arenas, contexts, worklists and scratch.
// ForEach builds a transient engine per call; RunOn reuses a caller-held
// one, whose steady state allocates (near) zero per run. Reuse is inert to
// determinism: recycled storage is fully reinitialized before tasks see it,
// so engine-reused runs are fingerprint-identical to fresh ones.
package core
