package cluster

import (
	"math/bits"

	"mrclone/internal/job"
)

// taskRun is the engine's per-task runtime record: every live copy of the
// task (launch order, stored by value in a pointer-free slice the garbage
// collector never scans) plus the index and cached (finish, seq) key of the
// copy that will finish first. A task appears in the calendar exactly when
// it has at least one active (non-gated) copy; best is -1 while all copies
// are gated.
//
// Keying the calendar by tasks instead of copies keeps it at one entry per
// running task regardless of clone factor and removes the lazy-deletion
// churn of a per-copy queue: when a task completes, its entry is popped
// once and its sibling copies never enter the calendar at all.
type taskRun struct {
	task   *job.Task
	owner  *job.Job
	copies []copyRecord

	best       int32 // index of the earliest-finishing active copy; -1 if none
	pos        int32 // onWheel, an index within the overflow heap, or -1 when not enqueued
	bestFinish int64 // == copies[best].finish while best >= 0
	bestSeq    int64 // == copies[best].seq while best >= 0

	// next and prev link the task into its wheel bucket while pos == onWheel.
	next, prev *taskRun
}

// Wheel geometry. The span covers all but a handful of completions on the
// Table-II trace (tasks rarely run 8,192 slots); longer ones, and durations
// clamped to MaxSlots+1, wait in the overflow heap.
const (
	wheelBits = 13
	wheelSpan = 1 << wheelBits // slots the wheel covers from its base
	wheelMask = wheelSpan - 1

	onWheel = -2 // taskRun.pos of a task linked into a wheel bucket
)

// calendar orders running tasks by their best copy's (finish, seq). It is a
// timing wheel of one-slot buckets over the slots [base, base+wheelSpan),
// with a binary heap as the overflow tier for tasks finishing later:
//
//   - Each bucket is a circular doubly linked list of the tasks finishing at
//     that slot, in seq order. Launches take the next seq, so they append at
//     the tail; a gated copy's older seq is placed by a short backward scan.
//   - A two-level occupancy bitmap finds the first non-empty bucket after
//     the base in a few word operations, and peek caches what it found.
//   - advance moves the base to the engine's slot once per loop step and
//     pulls overflow tasks that have come into range onto the wheel. So a
//     wheel task always finishes before every overflow task, and the
//     earliest task is the wheel's first when the wheel is not empty.
//
// Every entry finishes after the slot it was pushed on, and the engine pops
// every entry that finishes on a slot before it moves past it, so nothing
// on the wheel ever lies behind the base. The operations are what the
// engine needs: push, peek, pop-min, decrease (a task's best copy only ever
// improves — copies are added, never individually removed) and advance.
type calendar struct {
	base    int64
	heads   [wheelSpan]*taskRun // first (lowest-seq) task of each bucket
	words   [wheelSpan / 64]uint64
	summary [wheelSpan / 64 / 64]uint64 // bit w set iff words[w] != 0
	n       int                         // tasks on the wheel
	over    overflowHeap
	min     *taskRun // cached earliest task; nil when not known
}

// runBefore reports calendar order between two tasks.
func runBefore(x, y *taskRun) bool {
	if x.bestFinish != y.bestFinish {
		return x.bestFinish < y.bestFinish
	}
	return x.bestSeq < y.bestSeq
}

// size returns the number of tasks in the calendar.
func (c *calendar) size() int { return c.n + len(c.over.a) }

// advance moves the wheel's base to slot, which no task may finish before,
// and pulls the overflow tasks that now fall within the wheel's span.
func (c *calendar) advance(slot int64) {
	c.base = slot
	for len(c.over.a) > 0 && c.over.a[0].finish-slot < wheelSpan {
		c.link(c.over.pop())
	}
}

// push enqueues a task that just gained its first active copy.
func (c *calendar) push(tr *taskRun) {
	if tr.bestFinish-c.base < wheelSpan {
		c.link(tr)
	} else {
		c.over.push(tr)
	}
	if c.min != nil && runBefore(tr, c.min) {
		c.min = tr
	}
}

// decrease moves tr to the earlier key (finish, seq) of its new best copy.
func (c *calendar) decrease(tr *taskRun, finish, seq int64) {
	switch {
	case tr.pos == onWheel:
		c.unlink(tr)
		tr.bestFinish, tr.bestSeq = finish, seq
		c.link(tr)
	case finish-c.base < wheelSpan:
		c.over.remove(int(tr.pos))
		tr.bestFinish, tr.bestSeq = finish, seq
		c.link(tr)
	default:
		tr.bestFinish, tr.bestSeq = finish, seq
		c.over.siftUp(int(tr.pos))
	}
	if c.min != nil && runBefore(tr, c.min) {
		c.min = tr
	}
}

// peek returns the earliest-finishing task without removing it, or nil.
func (c *calendar) peek() *taskRun {
	if c.min == nil {
		if c.n > 0 {
			c.min = c.heads[c.firstBucket()]
		} else if len(c.over.a) > 0 {
			c.min = c.over.a[0].tr
		}
	}
	return c.min
}

// pop removes and returns the earliest-finishing task; the calendar must
// not be empty.
func (c *calendar) pop() *taskRun {
	tr := c.peek()
	if tr.pos == onWheel {
		next := tr.next
		c.unlink(tr)
		if next != tr {
			c.min = next // same slot, next seq
		} else {
			c.min = nil
		}
	} else {
		c.over.pop()
		c.min = nil
	}
	tr.pos = -1
	return tr
}

// reset empties the calendar for the next run.
func (c *calendar) reset() {
	if c.n > 0 {
		clear(c.heads[:])
		clear(c.words[:])
		clear(c.summary[:])
		c.n = 0
	}
	clear(c.over.a)
	c.over.a = c.over.a[:0]
	c.base = 0
	c.min = nil
}

// link inserts tr into the bucket of its finish slot, after every task with
// a smaller seq.
func (c *calendar) link(tr *taskRun) {
	i := int(tr.bestFinish & wheelMask)
	tr.pos = onWheel
	c.n++
	head := c.heads[i]
	if head == nil {
		tr.next, tr.prev = tr, tr
		c.heads[i] = tr
		c.words[i>>6] |= 1 << (i & 63)
		c.summary[i>>12] |= 1 << ((i >> 6) & 63)
		return
	}
	at := head.prev // tail
	for at.bestSeq > tr.bestSeq {
		if at == head {
			c.heads[i] = tr
			at = head.prev // insert before the old head: after the tail
			break
		}
		at = at.prev
	}
	tr.prev, tr.next = at, at.next
	at.next.prev = tr
	at.next = tr
}

// unlink removes tr from its bucket; tr.bestFinish must still name it.
func (c *calendar) unlink(tr *taskRun) {
	i := int(tr.bestFinish & wheelMask)
	c.n--
	if tr.next == tr {
		c.heads[i] = nil
		w := i >> 6
		c.words[w] &^= 1 << (i & 63)
		if c.words[w] == 0 {
			c.summary[w>>6] &^= 1 << (w & 63)
		}
	} else {
		tr.prev.next = tr.next
		tr.next.prev = tr.prev
		if c.heads[i] == tr {
			c.heads[i] = tr.next
		}
	}
	tr.next, tr.prev = nil, nil
}

// firstBucket returns the index of the first non-empty bucket from the
// base's, in slot order (wrapping around the wheel); the wheel must not be
// empty.
func (c *calendar) firstBucket() int {
	b := int(c.base & wheelMask)
	w := b >> 6
	if m := c.words[w] >> (b & 63); m != 0 {
		return b + bits.TrailingZeros64(m)
	}
	w = c.firstWord(w + 1)
	if w < 0 {
		w = c.firstWord(0) // wrapped: buckets before the base's
	}
	return w<<6 + bits.TrailingZeros64(c.words[w])
}

// firstWord returns the index of the first non-zero bitmap word at or after
// w, or -1.
func (c *calendar) firstWord(w int) int {
	for s := w >> 6; s < len(c.summary); s++ {
		m := c.summary[s]
		if s == w>>6 {
			m &= ^uint64(0) << (w & 63)
		}
		if m != 0 {
			return s<<6 + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// calEntry is one overflow-heap element: the owning task plus an inline
// copy of its best key, so heap comparisons touch only the heap array.
type calEntry struct {
	finish int64
	seq    int64
	tr     *taskRun
}

// entryBefore reports heap order between two entries.
func entryBefore(x, y calEntry) bool {
	if x.finish != y.finish {
		return x.finish < y.finish
	}
	return x.seq < y.seq
}

// overflowHeap is a binary min-heap of the tasks finishing beyond the
// wheel's span, ordered by (finish, seq). It is hand-rolled rather than
// container/heap to keep it free of interface dispatch.
type overflowHeap struct {
	a []calEntry
}

func (h *overflowHeap) push(tr *taskRun) {
	i := len(h.a)
	tr.pos = int32(i)
	h.a = append(h.a, calEntry{finish: tr.bestFinish, seq: tr.bestSeq, tr: tr})
	h.siftUp(i)
}

// pop removes and returns the earliest task.
func (h *overflowHeap) pop() *taskRun {
	top := h.a[0].tr
	h.remove(0)
	return top
}

// remove deletes the entry at index i.
func (h *overflowHeap) remove(i int) {
	h.a[i].tr.pos = -1
	last := len(h.a) - 1
	if i != last {
		h.a[i] = h.a[last]
		h.a[i].tr.pos = int32(i)
	}
	h.a[last].tr = nil
	h.a = h.a[:last]
	if i < last && h.siftDown(i) == i {
		h.siftUp(i)
	}
}

// siftUp moves the entry at i toward the root, refreshing its key from its
// task first (a task's key only ever decreases).
func (h *overflowHeap) siftUp(i int) {
	a := h.a
	node := a[i]
	node.finish, node.seq = node.tr.bestFinish, node.tr.bestSeq
	for i > 0 {
		parent := (i - 1) / 2
		if !entryBefore(node, a[parent]) {
			break
		}
		a[i] = a[parent]
		a[i].tr.pos = int32(i)
		i = parent
	}
	a[i] = node
	node.tr.pos = int32(i)
}

// siftDown moves the entry at i toward the leaves and returns where it
// came to rest.
func (h *overflowHeap) siftDown(i int) int {
	a := h.a
	n := len(a)
	node := a[i]
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && entryBefore(a[r], a[child]) {
			child = r
		}
		if !entryBefore(a[child], node) {
			break
		}
		a[i] = a[child]
		a[i].tr.pos = int32(i)
		i = child
	}
	a[i] = node
	node.tr.pos = int32(i)
	return i
}
