package marks

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"galois/internal/rng"
)

func TestTryAcquireRelease(t *testing.T) {
	var l Lockable
	e := NextEpoch()
	a, b, floor := Word(e, 0), Word(e, 1), Floor(e)

	if ok, _ := l.TryAcquire(a, floor); !ok {
		t.Fatal("acquire of free mark failed")
	}
	if ok, _ := l.TryAcquire(a, floor); !ok {
		t.Fatal("re-acquire by owner failed")
	}
	if ok, _ := l.TryAcquire(b, floor); ok {
		t.Fatal("acquire of held mark succeeded")
	}
	l.Release(a)
	if l.mark.Load() >= floor {
		t.Fatal("release did not clear mark")
	}
	if ok, _ := l.TryAcquire(b, floor); !ok {
		t.Fatal("acquire after release failed")
	}
}

func TestReleaseByNonOwnerIsNoop(t *testing.T) {
	var l Lockable
	e := NextEpoch()
	a, b := Word(e, 0), Word(e, 1)
	l.TryAcquire(a, Floor(e))
	l.Release(b)
	if !l.OwnedBy(a) {
		t.Fatal("release by non-owner changed the mark")
	}
}

func TestWriteMaxBasics(t *testing.T) {
	var l Lockable
	e := NextEpoch()
	lo, hi := Word(e, 0), Word(e, 1)

	owned, prev, _ := l.WriteMax(lo)
	if !owned || prev != 0 {
		t.Fatalf("WriteMax on free mark: owned=%v prev=%#x", owned, prev)
	}
	owned, prev, _ = l.WriteMax(hi)
	if !owned || prev != lo {
		t.Fatalf("higher slot should steal: owned=%v prev=%#x", owned, prev)
	}
	owned, prev, _ = l.WriteMax(lo)
	if owned || prev != 0 {
		t.Fatalf("lower slot should lose: owned=%v prev=%#x", owned, prev)
	}
	if !l.OwnedBy(hi) {
		t.Fatal("final holder is not the max slot")
	}
	// Owner re-acquire is idempotent.
	owned, prev, _ = l.WriteMax(hi)
	if !owned || prev != 0 {
		t.Fatalf("owner re-acquire: owned=%v prev=%#x", owned, prev)
	}
}

// TestStaleEpochReadsUnowned pins what replaces the round-end clear pass: a
// mark left by an earlier epoch, even from its highest slot, is below every
// word of a later epoch — it reads as unowned, its displacement is not a
// live steal, and the lowest slot of the new epoch takes the location.
func TestStaleEpochReadsUnowned(t *testing.T) {
	var l Lockable
	old := NextEpoch()
	stale := Word(old, MaxSlots-1)
	l.WriteMax(stale)

	e := NextEpoch()
	floor := Floor(e)
	if l.mark.Load() >= floor {
		t.Fatal("stale-epoch mark reads as held")
	}
	if l.mark.Load() < Floor(old) {
		t.Fatal("mark does not read as held in its own epoch")
	}
	w := Word(e, 0)
	owned, prev, _ := l.WriteMax(w)
	if !owned {
		t.Fatal("lowest slot of a new epoch lost to a stale mark")
	}
	if prev != stale || prev >= floor {
		t.Fatalf("displaced word %#x, want the stale %#x below floor %#x", prev, stale, floor)
	}
	if Slot(w) != 0 || Slot(stale) != MaxSlots-1 {
		t.Fatalf("Slot round trip: %d, %d", Slot(w), Slot(stale))
	}
}

// TestNondetMarkScopedToRun pins the non-deterministic protocol on the
// shared word: within a run's epoch a worker's mark blocks every other
// worker, and a mark an earlier run left behind blocks nobody.
func TestNondetMarkScopedToRun(t *testing.T) {
	var l Lockable
	run1 := NextEpoch()
	if ok, _ := l.TryAcquire(Word(run1, 0), Floor(run1)); !ok {
		t.Fatal("worker 0 could not acquire a free mark")
	}
	if ok, _ := l.TryAcquire(Word(run1, 1), Floor(run1)); ok {
		t.Fatal("worker 1 acquired a mark worker 0 holds in the same run")
	}

	// Worker 0 never released (the run ended with the mark in place).
	run2 := NextEpoch()
	if ok, _ := l.TryAcquire(Word(run2, 1), Floor(run2)); !ok {
		t.Fatal("a mark from an earlier run blocked a worker")
	}
	if !l.OwnedBy(Word(run2, 1)) {
		t.Fatal("acquisition over a stale mark did not install the new word")
	}
	// A stale-epoch owner cannot release the new run's mark.
	l.Release(Word(run1, 0))
	if l.mark.Load() < Floor(run2) {
		t.Fatal("release by an earlier run's word cleared a live mark")
	}
}

// TestEpochExhaustionPanics drives the epoch counter to its last value and
// checks that the next epoch panics instead of wrapping.
func TestEpochExhaustionPanics(t *testing.T) {
	saved := epochs.Load()
	defer epochs.Store(saved)

	epochs.Store(maxEpoch - 1)
	if e := NextEpoch(); e != maxEpoch {
		t.Fatalf("next epoch %d, want the last one %d", e, uint64(maxEpoch))
	}
	if Word(maxEpoch, MaxSlots-1) != ^uint64(0) {
		t.Fatal("the last epoch's top word is not the top of the word space")
	}
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, "epoch space exhausted") {
			t.Fatalf("exhaustion recovered %v, want the exhaustion panic", r)
		}
	}()
	NextEpoch()
	t.Fatal("NextEpoch past the last epoch did not panic")
}

// TestWriteMaxPermutationInvariance is the determinism core of the paper's
// Figure 3: the final mark must be the maximum word regardless of the order
// in which tasks write, including under true concurrency.
func TestWriteMaxPermutationInvariance(t *testing.T) {
	property := func(slots []uint16, seed uint64) bool {
		if len(slots) == 0 {
			return true
		}
		e := NextEpoch()
		// De-duplicate slots (the protocol requires one word per task).
		seen := map[int]bool{}
		var words []uint64
		maxWord := uint64(0)
		for _, s := range slots {
			k := int(s) % 1000
			for seen[k] {
				k++
			}
			seen[k] = true
			w := Word(e, k)
			words = append(words, w)
			maxWord = max(maxWord, w)
		}
		var l Lockable
		l.WriteMax(Word(e-1, MaxSlots-1)) // a stale mark never matters
		for _, i := range rng.New(seed).Perm(len(words)) {
			l.WriteMax(words[i])
		}
		return l.OwnedBy(maxWord)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteMaxConcurrent(t *testing.T) {
	const goroutines = 8
	const perG = 200
	var l Lockable
	e := NextEpoch()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.WriteMax(Word(e, g*perG+i))
			}
		}(g)
	}
	wg.Wait()
	if want := Word(e, goroutines*perG-1); !l.OwnedBy(want) {
		t.Fatalf("final mark %#x, want %#x", l.mark.Load(), want)
	}
}

// TestWriteMaxEqualIDConcurrent races writeMarksMax calls that carry the
// SAME word against each other and against distinct lower words.
// Re-acquisition by the owner must always succeed, must never report the
// word as displaced by itself, and the equal-word race must not corrupt the
// final max: the highest word still ends up holding the mark.
func TestWriteMaxEqualIDConcurrent(t *testing.T) {
	const goroutines = 8
	const iters = 500
	for trial := 0; trial < 20; trial++ {
		var l Lockable
		e := NextEpoch()
		top := Word(e, 1000)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					// Even goroutines hammer the shared (equal)
					// word; odd ones contend with their own lower one.
					w := top
					if g%2 == 1 {
						w = Word(e, g)
					}
					owned, prev, _ := l.WriteMax(w)
					if prev == w {
						t.Error("WriteMax reported a word displaced by itself")
						return
					}
					if w == top && !owned {
						t.Error("equal-word re-acquisition by the max word failed")
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if !l.OwnedBy(top) {
			t.Fatalf("trial %d: final mark %#x, want the max word", trial, l.mark.Load())
		}
	}
}

// inspect performs one inspect-mode acquire the way the DIG scheduler does:
// write-max the slot's word, flag the displaced live slot, or self-flag on
// a loss.
func inspect(l *Lockable, e uint64, slot int, prevented []atomic.Bool) {
	owned, prev, _ := l.WriteMax(Word(e, slot))
	if !owned {
		prevented[slot].Store(true)
	} else if prev >= Floor(e) {
		prevented[Slot(prev)].Store(true)
	}
}

// TestPreventedWhenMarkLostLater pins the §3.3 protocol edge case: a task
// marks a location, then loses it to a higher slot later in the same
// round. The stealer (not the loser) is responsible for flagging the loser
// as prevented, the loser's validation must fail, and the next round —
// without any clearing — must see both locations unowned.
func TestPreventedWhenMarkLostLater(t *testing.T) {
	var l1, l2 Lockable
	e := NextEpoch()
	const loser, stealer = 0, 1
	prevented := make([]atomic.Bool, 2)

	// The loser inspects its neighborhood {l1, l2} first and owns both.
	for _, l := range []*Lockable{&l1, &l2} {
		owned, prev, _ := l.WriteMax(Word(e, loser))
		if !owned || prev >= Floor(e) {
			t.Fatalf("loser failed to mark an empty location: owned=%v prev=%#x", owned, prev)
		}
	}

	// Later in the round the higher-slot task touches l2 and displaces it.
	owned, prev, _ := l2.WriteMax(Word(e, stealer))
	if !owned || prev < Floor(e) || Slot(prev) != loser {
		t.Fatalf("stealer: owned=%v prev=%#x, want owned with the loser displaced", owned, prev)
	}
	prevented[Slot(prev)].Store(true) // stealer's obligation

	if !prevented[loser].Load() {
		t.Fatal("loser not prevented after losing a location it had marked")
	}
	if prevented[stealer].Load() {
		t.Fatal("stealer spuriously prevented")
	}

	// Commit-phase validation: the loser still owns l1 but not l2, so it
	// must not pass validation of its full neighborhood.
	if !l1.OwnedBy(Word(e, loser)) {
		t.Fatal("loser lost l1, which nobody contested")
	}
	if l2.OwnedBy(Word(e, loser)) {
		t.Fatal("loser still validates on the stolen location")
	}

	// Next round: no clear pass ran, yet both locations are free, and the
	// loser's reused slot takes them without flagging anyone.
	next := NextEpoch()
	for _, l := range []*Lockable{&l1, &l2} {
		if l.mark.Load() >= Floor(next) {
			t.Fatal("mark from the previous round reads as held")
		}
		owned, prev, _ := l.WriteMax(Word(next, loser))
		if !owned || prev >= Floor(next) {
			t.Fatalf("next round: owned=%v prev=%#x, want owned with no live displacement", owned, prev)
		}
	}
}

// TestWriteMaxPreventedCover verifies the continuation-optimization
// invariant: after all writes, every task that does not own all its marks
// is either self-prevented (saw a higher word) or was displaced (flagged by
// the stealer) — so "not prevented" == "owns everything it touched". Each
// trial reuses the locations of the previous one without clearing them.
func TestWriteMaxPreventedCover(t *testing.T) {
	const nlocs = 20
	const ntasks = 50
	r := rng.New(42)
	locs := make([]Lockable, nlocs)
	for trial := 0; trial < 50; trial++ {
		e := NextEpoch()
		prevented := make([]atomic.Bool, ntasks)
		touched := make([][]int, ntasks)
		for i := range touched {
			n := 1 + r.Intn(4)
			for j := 0; j < n; j++ {
				touched[i] = append(touched[i], r.Intn(nlocs))
			}
		}
		var wg sync.WaitGroup
		for i := range touched {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for _, li := range touched[i] {
					inspect(&locs[li], e, i, prevented)
				}
			}(i)
		}
		wg.Wait()
		for i := range touched {
			ownsAll := true
			for _, li := range touched[i] {
				if !locs[li].OwnedBy(Word(e, i)) {
					ownsAll = false
					break
				}
			}
			if ownsAll == prevented[i].Load() {
				t.Fatalf("trial %d task %d: ownsAll=%v prevented=%v",
					trial, i, ownsAll, prevented[i].Load())
			}
		}
	}
}
