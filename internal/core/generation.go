package core

import "math/bits"

// genArena is the backing storage for one generation: the task records, the
// deterministic-order pointer slice, and a second pointer slice used as the
// destination of the locality interleave. Arenas are sized in power-of-two
// classes so an engine can recycle them across generations and runs whose
// sizes differ (a BFS frontier grows and shrinks by orders of magnitude
// within one run). The per-task scratch slices (acquired, children) live in
// the task records, so recycling an arena also recycles every task's
// neighborhood and child buffers at their high-water capacity.
type genArena[T any] struct {
	tasks []detTask[T]
	order []*detTask[T]
	perm  []*detTask[T]
	// dirty bounds the tasks written since the engine last dropped the
	// arena's payloads (engState.dropPayloads).
	dirty int
}

// arenaClass returns the free-list class for a generation of n tasks: the
// exponent of the smallest power of two >= n (floored so tiny generations
// share one class).
func arenaClass(n int) int {
	if n <= 16 {
		return 4
	}
	return bits.Len(uint(n - 1))
}

// genFreeList is a size-classed free list of generation arenas, one slot per
// power-of-two class. One slot suffices because at most one generation is
// live at a time within a run: the scheduler releases generation g before
// taking storage for generation g+1, so a steady-state run ping-pongs on the
// same arena(s) and allocates nothing.
type genFreeList[T any] struct {
	byClass [65]*genArena[T]
}

// take returns an arena with capacity for n tasks, recycling a free one of
// the right class when available.
func (fl *genFreeList[T]) take(n int) *genArena[T] {
	c := arenaClass(n)
	a := fl.byClass[c]
	if a != nil {
		fl.byClass[c] = nil
	} else {
		capacity := 1 << c
		a = &genArena[T]{
			tasks: make([]detTask[T], capacity),
			order: make([]*detTask[T], capacity),
			perm:  make([]*detTask[T], capacity),
		}
	}
	a.dirty = max(a.dirty, n)
	return a
}

// put returns an arena to the free list. The class slot holds one arena;
// a displaced arena is dropped to the garbage collector (this only happens
// when generation sizes oscillate faster than reuse, which recycling by
// class makes rare).
func (fl *genFreeList[T]) put(a *genArena[T]) {
	fl.byClass[arenaClass(len(a.tasks))] = a
}

// generation owns one DIG generation: its task storage and the tasks'
// deterministic order, including id assignment (§3.2: a task's id is its
// position in the generation's sorted order; 0 is reserved for "unowned").
type generation[T any] struct {
	arena *genArena[T]
	// tasks is the generation in deterministic order; it aliases
	// arena.order (or arena.perm after an interleave).
	tasks []*detTask[T]
}

// fill populates the generation with n tasks produced by item, resetting
// recycled task records while preserving their scratch capacity.
func (g *generation[T]) fill(n int, item func(int) T) {
	backing := g.arena.tasks[:n]
	order := g.arena.order[:n]
	for i := range backing {
		t := &backing[i]
		t.item = item(i)
		t.acquired = t.acquired[:0]
		t.children = t.children[:0]
		t.commitFn = nil
		t.failed = false
		order[i] = t
	}
	g.tasks = order
}

func (g *generation[T]) len() int { return len(g.tasks) }

// interleave applies the locality-aware round placement of §3.3 for an
// initial window w0 (see interleaveSrc), permuting into the arena's second
// pointer slice so repeated runs allocate nothing. Used by the serial
// coordinator oracle; the parallel formation pass applies interleaveSrc
// per output slot instead.
func (g *generation[T]) interleave(w0 int) {
	n := len(g.tasks)
	buckets := interleaveBuckets(n, w0)
	if buckets <= 1 {
		return
	}
	full := g.arena.perm
	dst := full[:n]
	for p := range dst {
		dst[p] = g.tasks[interleaveSrc(p, n, buckets)]
	}
	// Ping-pong the two pointer slices so a later fill reuses both.
	g.arena.perm = g.arena.order
	g.arena.order = full
	g.tasks = dst
}

// assignIDs gives every task its deterministic id: its position in the
// generation's order, offset by one so ids are strictly positive (§3.2).
func (g *generation[T]) assignIDs() {
	for i, t := range g.tasks {
		t.id = uint64(i) + 1
	}
}
