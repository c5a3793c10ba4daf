// Package marks implements the mark words the Galois runtime associates with
// abstract memory locations (paper §2, Figure 3).
//
// Every abstract location that tasks may conflict on embeds a Lockable: one
// 64-bit word holding
//
//	epoch<<23 | (slot + 1)
//
// like the paper's integer mark. The epoch comes from a process-wide
// monotonic counter (NextEpoch); the slot identifies the writer within that
// epoch. The deterministic scheduler takes one epoch per round and uses the
// task's index in the round's window as its slot; the non-deterministic
// scheduler takes one epoch per run and uses the worker id.
//
// # Epoch lifecycle
//
// A word is live for epoch e iff it is at or above Floor(e). Every word
// written under an earlier epoch is numerically below every live one, so it
// reads as unowned without ever being cleared: the zero value (epoch 0,
// which NextEpoch never returns) is unowned, and so is every mark a
// finished round or run left behind. Within one epoch, the max over words
// is the max over slots, so the deterministic contest of Figure 3
// (writeMarksMax, the highest id wins) is a plain integer max (WriteMax)
// whenever slot order equals id order.
//
// The epoch counter has 64-23 = 41 bits. At 10⁴ rounds per second it
// lasts about seven years of continuous running in one process; NextEpoch
// panics when it runs out rather than wrap, because a wrapped epoch would
// make stale marks read as live.
package marks

import (
	"fmt"
	"sync/atomic"
)

const (
	// slotBits is the width of the slot field of a mark word.
	slotBits = 23
	// MaxSlots is the number of distinct slots per epoch: slot+1 must be
	// nonzero and fit in slotBits.
	MaxSlots = 1<<slotBits - 1
	slotMask = 1<<slotBits - 1
	// maxEpoch is the last epoch NextEpoch hands out.
	maxEpoch = 1<<(64-slotBits) - 1
)

// epochs is the process-wide epoch counter; the last epoch handed out.
var epochs atomic.Uint64

// NextEpoch returns a fresh epoch, strictly greater than every epoch
// returned before it in this process. It panics when the epoch space is
// exhausted (see the package doc for the horizon).
func NextEpoch() uint64 {
	e := epochs.Add(1)
	if e > maxEpoch {
		panic(fmt.Sprintf("marks: epoch space exhausted after %d epochs — a wrapped epoch would make stale marks read as live; restart the process", uint64(maxEpoch)))
	}
	return e
}

// Floor returns the smallest word live in epoch e.
func Floor(e uint64) uint64 { return e << slotBits }

// Word returns the mark word of slot in epoch e. slot must be in
// [0, MaxSlots).
func Word(e uint64, slot int) uint64 { return e<<slotBits | uint64(slot+1) }

// Slot returns the slot a mark word was written for.
func Slot(w uint64) int { return int(w&slotMask) - 1 }

// Lockable is a mark word for one abstract location. The zero value is an
// unowned mark. Data structures embed Lockable in every element that can be
// part of a task neighborhood (graph nodes, mesh triangles, ...).
type Lockable struct {
	mark atomic.Uint64
}

// OwnedBy reports whether w is the location's current mark word.
func (l *Lockable) OwnedBy(w uint64) bool { return l.mark.Load() == w }

// TryAcquire attempts CAS acquisition for word w, as in Figure 1b's
// writeMarks. Words below floor (earlier epochs) count as unowned. It
// returns (true, ops) on success or if w already owns the location,
// (false, ops) if another live word owns it. ops is the number of atomic
// operations performed, for the Figure 5 accounting.
func (l *Lockable) TryAcquire(w, floor uint64) (ok bool, ops int) {
	cur := l.mark.Load()
	if cur == w {
		return true, 1
	}
	if cur >= floor {
		return false, 1
	}
	// A failed CAS means another worker took the location between the
	// load and the swap: a genuine conflict.
	return l.mark.CompareAndSwap(cur, w), 2
}

// Release unmarks the location if w owns it, as in the unlock path of
// Figure 1b. Returns the number of atomic operations performed.
func (l *Lockable) Release(w uint64) (ops int) {
	if l.mark.Load() == w {
		l.mark.CompareAndSwap(w, 0)
		return 2
	}
	return 1
}

// WriteMax implements writeMarksMax from Figure 3 for a single location:
// install w unless the current word is at least w. Unlike TryAcquire it
// never gives up early — determinism requires every task to contribute its
// word to the max at every location in its neighborhood. A word from an
// earlier epoch is below w, so it is simply overwritten.
//
// Returns:
//
//	owned — whether w holds the location after the call,
//	prev  — the word w displaced (0 if none, or if w already held it); the
//	        caller flags prev's task as prevented (continuation
//	        optimization, §3.3) when prev is live in w's epoch,
//	ops   — atomic operations performed.
func (l *Lockable) WriteMax(w uint64) (owned bool, prev uint64, ops int) {
	cur := l.mark.Load()
	ops = 1
	for cur < w {
		if l.mark.CompareAndSwap(cur, w) {
			return true, cur, ops + 1
		}
		// Contention: someone else updated the mark; retry. The final
		// outcome (the max) is unaffected by the interleaving.
		cur = l.mark.Load()
		ops += 2
	}
	return cur == w, 0, ops
}
