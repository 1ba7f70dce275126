package event

import "math/bits"

// The event queue. Nearly every event the machine model schedules lands
// at one of a handful of fixed delays from now (0 for same-time
// handoffs, frame serialization times, the SCU acknowledgement
// timeout), because the hardware is self-synchronizing at fixed link
// latencies (paper §2.2). As now never decreases and sequence numbers
// only grow, events scheduled at one delay arrive in (at, seq) order:
// they need a FIFO, not a heap. So the queue keeps numLanes FIFO lanes,
// each keyed by a delay. Lane 0 is always delay 0; a lane that drains
// is re-keyed to the next delay without a lane. Other events fall back
// to a heap of pointer-free keys. Dispatch takes the least (at, seq)
// over the lane heads and the heap top: exactly one heap's order.
//
// Events live in two slabs (local and payload items) and never move:
// lanes are linked through the slots, and freed slots are reused.

// numLanes is how many fixed-delay FIFO lanes a queue keeps: room for
// the chaos campaign's 10 hot delays plus rare long-lived ones.
const numLanes = 16

// xslot tags a slot number as indexing the payload slab.
const xslot = 1 << 31

// stamp is an event's place in the dispatch order: time, then
// scheduling sequence (FIFO among simultaneous events).
type stamp struct {
	at  Time
	seq uint64
}

func (a stamp) less(b stamp) bool { return a.at < b.at || (a.at == b.at && a.seq < b.seq) }

// key is a heap entry.
type key struct {
	stamp
	slot uint32
}

// lane is a FIFO list of the slots scheduled at one delay. last is the
// time of its newest event: a push earlier than that would break the
// lane's order, so it goes to another lane or the heap.
type lane struct {
	last       Time
	head, tail uint32
}

// hdr is the queue's part of a slab slot: the event's stamp and the
// next slot in its lane (or, while the slot is free, the next free
// slot plus one).
type hdr struct {
	stamp
	next uint32
}

// entry is one slab slot.
type entry[T any] struct {
	hdr
	ev T
}

// slabChunk is how many events one slab chunk holds. A slab grows a
// chunk at a time and never moves an event, so growth copies nothing
// and leaves no garbage behind.
const slabChunk = 512

// slab stores queued events by slot number, reusing freed slots.
type slab[T any] struct {
	chunks []*[slabChunk]entry[T]
	n      uint32 // slots handed out since the last reset
	free   uint32 // first free slot plus one; 0 when none
}

//qcdoc:noalloc
func (sl *slab[T]) at(i uint32) *entry[T] { return &sl.chunks[i/slabChunk][i%slabChunk] }

// alloc takes a free slot, stamps it st, and returns the slot number
// and its (zeroed) event for the caller to fill.
//
//qcdoc:noalloc
func (sl *slab[T]) alloc(st stamp) (uint32, *T) {
	i := sl.free - 1
	if sl.free != 0 {
		sl.free = sl.at(i).next
	} else {
		i = sl.n
		sl.n++
		if int(i/slabChunk) == len(sl.chunks) {
			sl.chunks = append(sl.chunks, new([slabChunk]entry[T]))
		}
	}
	p := sl.at(i)
	p.stamp = st
	return i, &p.ev
}

// take frees slot i and returns its stamp and event, clearing the slot
// so the slab keeps no reference to the event.
//
//qcdoc:noalloc
func (sl *slab[T]) take(i uint32) (stamp, T) {
	p := sl.at(i)
	st, ev := p.stamp, p.ev
	*p = entry[T]{hdr: hdr{next: sl.free}}
	sl.free = i + 1
	return st, ev
}

func (sl *slab[T]) reset() {
	for c := 0; c*slabChunk < int(sl.n); c++ {
		clear(sl.chunks[c][:])
	}
	sl.n, sl.free = 0, 0
}

// capacity is how many events the slab holds without growing.
func (sl *slab[T]) capacity() int { return len(sl.chunks) * slabChunk }

// eventQueue is an engine's event queue; see the top of this file.
type eventQueue struct {
	n      int                 // events queued
	live   uint32              // bit i: lane i is nonempty; bit numLanes: the heap is
	delay  [numLanes]Time      // each lane's key
	top    [numLanes + 1]stamp // head stamp of each nonempty lane, then the heap's
	lanes  [numLanes]lane
	heap   []key
	items  slab[item]
	xitems slab[xitem]
}

// reset empties the queue, clearing every queued event, and keeps the
// slabs and heap for reuse.
func (q *eventQueue) reset() {
	q.n, q.live = 0, 0
	q.heap = q.heap[:0]
	q.items.reset()
	q.xitems.reset()
}

// hdr returns slot s's header in whichever slab holds it.
//
//qcdoc:noalloc
func (q *eventQueue) hdr(s uint32) *hdr {
	if s&xslot != 0 {
		return &q.xitems.at(s &^ xslot).hdr
	}
	return &q.items.at(s).hdr
}

// push queues the event in slot, stamped st; now is the engine clock.
// The event joins the lane keyed by its delay; failing that, it re-keys
// the empty lane that has been idle longest; failing that, the heap.
//
//qcdoc:noalloc
func (q *eventQueue) push(now Time, st stamp, slot uint32) {
	q.n++
	d := st.at - now
	pick := -1
	for i, ld := range q.delay {
		if ld == d && (q.live&(1<<i) == 0 || st.at >= q.lanes[i].last) {
			pick = i
			break
		}
	}
	if pick < 0 {
		// Lane 0 stays keyed to delay 0, half of all events.
		for free := ^q.live & (1<<numLanes - 2); free != 0; free &= free - 1 {
			if i := bits.TrailingZeros32(free); pick < 0 || q.lanes[i].last < q.lanes[pick].last {
				pick = i
			}
		}
	}
	if pick < 0 {
		q.heap = append(q.heap, key{st, slot})
		q.up(len(q.heap) - 1)
		q.top[numLanes] = q.heap[0].stamp
		q.live |= 1 << numLanes
		return
	}
	l := &q.lanes[pick]
	if q.live&(1<<pick) == 0 {
		q.live |= 1 << pick
		q.delay[pick] = d
		q.top[pick] = st
		l.head = slot
	} else {
		q.hdr(l.tail).next = slot
	}
	l.tail = slot
	l.last = st.at
}

// next returns the source (lane index, or numLanes for the heap) holding
// the earliest event, or -1 when the queue is empty.
//
//qcdoc:noalloc
func (q *eventQueue) next() int {
	m := q.live
	if m == 0 {
		return -1
	}
	b := bits.TrailingZeros32(m)
	for m &= m - 1; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros32(m); q.top[i].less(q.top[b]) {
			b = i
		}
	}
	return b
}

// pop removes the head event of source b (from next) and returns its
// slot.
//
//qcdoc:noalloc
func (q *eventQueue) pop(b int) uint32 {
	q.n--
	if b == numLanes {
		slot := q.heap[0].slot
		last := len(q.heap) - 1
		q.heap[0] = q.heap[last]
		q.heap = q.heap[:last]
		if last == 0 {
			q.live &^= 1 << numLanes
		} else {
			q.down(0)
			q.top[numLanes] = q.heap[0].stamp
		}
		return slot
	}
	l := &q.lanes[b]
	slot := l.head
	if slot == l.tail {
		q.live &^= 1 << b
	} else {
		l.head = q.hdr(slot).next
		q.top[b] = q.hdr(l.head).stamp
	}
	return slot
}

//qcdoc:noalloc
func (q *eventQueue) up(i int) {
	h := q.heap
	k := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !k.less(h[p].stamp) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = k
}

//qcdoc:noalloc
func (q *eventQueue) down(i int) {
	h := q.heap
	k := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c].stamp) {
			c = r
		}
		if !h[c].less(k.stamp) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = k
}
