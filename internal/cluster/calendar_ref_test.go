package cluster

import (
	"math/rand"
	"testing"
)

// refCalendar is the engine's calendar as it was before the timing wheel:
// one binary min-heap of every running task by (finish, seq). The wheel
// must pop in exactly its order.
type refCalendar struct {
	a []calEntry
}

func (c *refCalendar) push(tr *taskRun) {
	i := len(c.a)
	tr.pos = int32(i)
	c.a = append(c.a, calEntry{finish: tr.bestFinish, seq: tr.bestSeq, tr: tr})
	c.siftUp(i)
}

func (c *refCalendar) peek() *taskRun {
	if len(c.a) == 0 {
		return nil
	}
	return c.a[0].tr
}

func (c *refCalendar) pop() *taskRun {
	top := c.a[0].tr
	last := len(c.a) - 1
	c.a[0] = c.a[last]
	c.a[0].tr.pos = 0
	c.a[last].tr = nil
	c.a = c.a[:last]
	if last > 0 {
		c.siftDown(0)
	}
	top.pos = -1
	return top
}

func (c *refCalendar) decreased(tr *taskRun) {
	i := int(tr.pos)
	c.a[i].finish, c.a[i].seq = tr.bestFinish, tr.bestSeq
	c.siftUp(i)
}

func (c *refCalendar) siftUp(i int) {
	a := c.a
	node := a[i]
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

func (c *refCalendar) siftDown(i int) {
	a := c.a
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
}

// calendarDriver applies one operation sequence to the wheel calendar and
// the reference under the engine's rules: the slot only moves forward,
// never past the earliest task nor past the last slot a run can reach
// (maxMaxSlots+1), every key lies after the current slot, a decrease only
// makes a key earlier, and seqs are unique. Each task has a record in both
// calendars.
type calendarDriver struct {
	t      *testing.T
	wheel  *calendar
	ref    refCalendar
	slot   int64
	seqs   int64
	live   [][2]*taskRun // {wheel record, reference record}
	popped int
}

func newCalendarDriver(t *testing.T, c *calendar) *calendarDriver {
	c.reset()
	return &calendarDriver{t: t, wheel: c}
}

// horizon returns a duration in slots by class: short, about one or two
// wheel spans (either side of the boundaries), far beyond, or the engine's
// clamp for durations past MaxSlots.
func horizon(class, v int) int64 {
	switch class % 6 {
	case 0:
		return 1 + int64(v%16)
	case 1:
		return 1 + int64(v%wheelSpan)
	case 2:
		return wheelSpan - 2 + int64(v%5) // around the span
	case 3:
		return 2*wheelSpan - 2 + int64(v%5) // around twice the span
	case 4:
		return 1 + int64(v)*7 // up to ~28 spans with a 16-bit v
	default:
		return maxMaxSlots + 1
	}
}

// nextSeq returns a unique seq; hi orders it against the others.
func (d *calendarDriver) nextSeq(hi int) int64 {
	d.seqs++
	return int64(hi)<<32 | d.seqs
}

func (d *calendarDriver) push(class, v, hi int) {
	w, r := &taskRun{pos: -1}, &taskRun{pos: -1}
	w.bestFinish = d.slot + horizon(class, v)
	w.bestSeq = d.nextSeq(hi)
	r.bestFinish, r.bestSeq = w.bestFinish, w.bestSeq
	d.wheel.push(w)
	d.ref.push(r)
	d.live = append(d.live, [2]*taskRun{w, r})
}

func (d *calendarDriver) decrease(pick, v, hi int) {
	if len(d.live) == 0 {
		return
	}
	w, r := d.live[pick%len(d.live)][0], d.live[pick%len(d.live)][1]
	if w.bestFinish == d.slot {
		return // due now: nothing can finish earlier
	}
	finish := d.slot + 1 + int64(v)%(w.bestFinish-d.slot) // in (slot, bestFinish]
	seq := d.nextSeq(hi)
	if finish == w.bestFinish && seq > w.bestSeq {
		if w.bestSeq>>32 == 0 {
			return // no lower seq left for an equal finish
		}
		seq = d.nextSeq(int(w.bestSeq>>32) - 1)
	}
	d.wheel.decrease(w, finish, seq)
	r.bestFinish, r.bestSeq = finish, seq
	d.ref.decreased(r)
}

// advance moves the slot forward by up to v slots, stopping at the
// earliest task.
func (d *calendarDriver) advance(v int) {
	to := min(d.slot+int64(v), maxMaxSlots+1)
	if top := d.ref.peek(); top != nil {
		to = min(to, top.bestFinish)
	}
	d.slot = to
	d.wheel.advance(to)
}

// pop moves to the earliest task's slot, pops it from both calendars and
// requires the same task. It reports false when the calendar is empty or
// its earliest task lies past the last slot a run can reach.
func (d *calendarDriver) pop() bool {
	top := d.ref.peek()
	if top == nil || top.bestFinish > maxMaxSlots+1 {
		return false
	}
	d.slot = top.bestFinish
	d.wheel.advance(d.slot)
	d.check()
	w, r := d.wheel.pop(), d.ref.pop()
	if w.bestFinish != r.bestFinish || w.bestSeq != r.bestSeq {
		d.t.Fatalf("pop %d: wheel (%d, %d), reference (%d, %d)",
			d.popped, w.bestFinish, w.bestSeq, r.bestFinish, r.bestSeq)
	}
	d.popped++
	for i, p := range d.live {
		if p[0] == w {
			d.live[i] = d.live[len(d.live)-1]
			d.live = d.live[:len(d.live)-1]
			break
		}
	}
	return true
}

// check requires both calendars to agree on size and earliest task.
func (d *calendarDriver) check() {
	if got, want := d.wheel.size(), len(d.ref.a); got != want {
		d.t.Fatalf("slot %d: wheel holds %d tasks, reference %d", d.slot, got, want)
	}
	w, r := d.wheel.peek(), d.ref.peek()
	if (w == nil) != (r == nil) || w != nil && (w.bestFinish != r.bestFinish || w.bestSeq != r.bestSeq) {
		d.t.Fatalf("slot %d: peek differs: wheel %+v, reference %+v", d.slot, w, r)
	}
}

// run interprets ops as an operation sequence, then drains both
// calendars.
func (d *calendarDriver) run(ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	for len(ops) > 0 {
		switch op := next(); op % 5 {
		case 0, 1:
			d.push(op/5, next()<<8|next(), next())
		case 2:
			d.decrease(next(), next()<<8|next(), next())
		case 3:
			d.advance(next() << (next() % 12))
		default:
			d.pop()
		}
		d.check()
	}
	for d.pop() {
	}
	d.check()
}

// TestCalendarMatchesReference drives long random operation sequences
// through the wheel and the reference heap.
func TestCalendarMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := new(calendar)
	for trial := 0; trial < 50; trial++ {
		ops := make([]byte, 1+r.Intn(20000))
		r.Read(ops)
		newCalendarDriver(t, c).run(ops)
	}
}

// FuzzCalendar drives fuzzed push, decrease, advance and pop sequences
// through the wheel and the reference heap and requires the same pop order.
func FuzzCalendar(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		ops := make([]byte, 64<<i)
		r.Read(ops)
		f.Add(ops)
	}
	c := new(calendar)
	f.Fuzz(func(t *testing.T, ops []byte) {
		newCalendarDriver(t, c).run(ops)
	})
}
