package event

import (
	"math/rand"
	"slices"
	"testing"
)

// orderProbe drives a randomised scheduling mix through every entry
// point that queues an event and records what each one should and did
// dispatch as.
type orderProbe struct {
	e      *Engine
	rng    *rand.Rand
	delays []Time
	timers []*Timer
	budget int
	want   []stamp // every queued event, as scheduled (at clamped)
	got    []stamp // every dispatched event, in dispatch order
}

func (p *orderProbe) HandleEvent(uint64)            { p.fire() }
func (p *orderProbe) HandlePayload(uint64, Payload) { p.fire() }

// fire is every live event's action: queue one or two more.
func (p *orderProbe) fire() {
	for n := 1 + p.rng.Intn(2); n > 0; n-- {
		p.schedule()
	}
}

func (p *orderProbe) schedule() {
	if p.budget == 0 {
		return
	}
	p.budget--
	e := p.e
	t := e.now + p.delays[p.rng.Intn(len(p.delays))]
	switch p.rng.Intn(16) {
	case 0:
		t = e.now - Time(p.rng.Intn(1000)) // in the past: clamped to now
	case 1:
		t = e.now + Time(p.rng.Int63n(int64(20*Microsecond))) // a delay no lane holds
	}
	switch p.rng.Intn(4) {
	case 0:
		e.At(t, p.fire)
	case 1:
		e.AtHandler(t, p, 0)
	case 2:
		e.CrossPayload(e, t, p, 0, Payload{})
	case 3:
		tm := p.timers[p.rng.Intn(len(p.timers))]
		if p.rng.Intn(4) == 0 {
			tm.Stop() // its queued firing still dispatches, as a stale event
		}
		tm.ArmAt(t)
	}
	p.want = append(p.want, stamp{max(t, e.now), e.seq})
}

// TestQueueMatchesSortedOrder checks the queue against its definition:
// events dispatch in (at, seq) order. The mixes use more distinct
// delays than there are lanes, so lanes drain and re-key and events
// fall back to the heap; they include same-time ties, past times, stale
// timer firings, payload events, and Run horizons that fall between
// events.
func TestQueueMatchesSortedOrder(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		p := &orderProbe{e: e, rng: rng, budget: 20000}
		p.delays = []Time{0, 0, 50 * Microsecond}
		for len(p.delays) < 3+2*numLanes {
			p.delays = append(p.delays, Time(1+rng.Intn(3000))*Nanosecond/4)
		}
		for i := 0; i < 4; i++ {
			p.timers = append(p.timers, e.NewTimer(p.fire))
		}
		keys := map[Time]bool{}
		heapUsed := false
		e.SetTracer(func(at Time) {
			p.got = append(p.got, stamp{at, e.lastSeq})
			for i, d := range e.q.delay {
				if e.q.live&(1<<i) != 0 {
					keys[d] = true
				}
			}
			heapUsed = heapUsed || len(e.q.heap) > 0
		})
		for i := 0; i < 32; i++ {
			p.schedule()
		}
		for e.Pending() > 0 {
			if err := e.Run(e.Now() + Time(rng.Int63n(int64(5*Microsecond)))); err != nil {
				t.Fatal(err)
			}
		}
		slices.SortFunc(p.want, func(a, b stamp) int {
			if a.less(b) {
				return -1
			}
			return 1
		})
		if !slices.Equal(p.got, p.want) {
			t.Fatalf("seed %d: dispatch order differs from (at, seq) order (%d dispatched, %d queued)",
				seed, len(p.got), len(p.want))
		}
		if len(keys) <= numLanes || !heapUsed {
			t.Fatalf("seed %d: mix used %d lane keys, heap used %v; want more keys than lanes and the heap",
				seed, len(keys), heapUsed)
		}
	}
}

// cycler keeps a fixed population of events alive: each firing queues
// its successor at the next delay of a fixed cycle, every fourth one as
// a payload event.
type cycler struct {
	e      *Engine
	delays []Time
}

func (c *cycler) HandleEvent(arg uint64) { c.next(arg) }

func (c *cycler) HandlePayload(arg uint64, _ Payload) { c.next(arg) }

func (c *cycler) next(arg uint64) {
	d := c.delays[arg%uint64(len(c.delays))]
	if arg%4 == 0 {
		c.e.CrossPayload(c.e, c.e.now+d, c, arg+1, Payload{arg})
		return
	}
	c.e.AfterHandler(d, c, arg+1)
}

// newCycler seeds n events over a delay cycle with more distinct delays
// than there are lanes, so some always live in the heap.
func newCycler(e *Engine, n int) *cycler {
	c := &cycler{e: e}
	for i := 0; i < 4*numLanes; i++ {
		c.delays = append(c.delays, Time(i*i)*37*Nanosecond)
	}
	for i := 0; i < n; i++ {
		e.AfterHandler(Time(i)*Nanosecond, c, uint64(i))
	}
	return c
}

// TestQueueDispatchAllocFree: once its slabs and heap have grown, an
// engine queues and dispatches lane, heap and payload events without
// allocating.
func TestQueueDispatchAllocFree(t *testing.T) {
	e := New()
	newCycler(e, 256)
	if err := e.Run(200 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if len(e.q.heap) == 0 {
		t.Fatal("mix never reached the heap")
	}
	before := e.Executed()
	avg := testing.AllocsPerRun(50, func() {
		if err := e.Run(e.Now() + 10*Microsecond); err != nil {
			t.Fatal(err)
		}
	})
	if e.Executed() == before {
		t.Fatal("nothing dispatched during measurement")
	}
	if avg != 0 {
		t.Errorf("warmed engine allocates %.2f times per 10us window", avg)
	}
}

// TestReleaseKeepsQueueCapacity: Release hands back the queue's slabs
// and heap emptied and cleared, and NewWith reuses them as they are.
func TestReleaseKeepsQueueCapacity(t *testing.T) {
	e := New()
	newCycler(e, 2000)
	if err := e.Run(300 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if e.Pending() == 0 || len(e.q.heap) == 0 || e.q.xitems.n == 0 {
		t.Fatal("mix left no events pending in the heap and payload slab")
	}
	items, heap := e.q.items.chunks, cap(e.q.heap)
	capacity := e.q.items.capacity() + e.q.xitems.capacity()

	st := e.Release()
	if st.Pending() != 0 {
		t.Fatalf("released storage holds %d events", st.Pending())
	}
	if st.Cap() != capacity {
		t.Fatalf("released storage capacity %d, want %d", st.Cap(), capacity)
	}
	for _, c := range st.q.items.chunks {
		for i := range c {
			if c[i].ev.h != nil {
				t.Fatal("released storage still references a queued item")
			}
		}
	}
	for _, c := range st.q.xitems.chunks {
		for i := range c {
			if c[i].ev.h != nil {
				t.Fatal("released storage still references a queued payload")
			}
		}
	}

	e2 := NewWith(st)
	if e2.Pending() != 0 {
		t.Fatalf("engine built on released storage has %d events pending", e2.Pending())
	}
	newCycler(e2, 2000)
	if err := e2.Run(300 * Microsecond); err != nil {
		t.Fatal(err)
	}
	if e2.q.items.capacity()+e2.q.xitems.capacity() != capacity || cap(e2.q.heap) != heap ||
		e2.q.items.chunks[0] != items[0] {
		t.Fatal("the same run on recycled storage grew or replaced it")
	}
}

// TestClusterizeRejectsQueuedPayload: a payload event queued through an
// unclustered CrossPayload makes the engine not fresh.
func TestClusterizeRejectsQueuedPayload(t *testing.T) {
	e := New()
	e.CrossPayload(e, 10*Nanosecond, &cycler{e: e}, 0, Payload{})
	defer func() {
		if recover() == nil {
			t.Fatal("Clusterize accepted an engine with a queued payload event")
		}
	}()
	Clusterize(e, 2, 1, Nanosecond)
}

// TestQueueTryGetDropsItem: a delivered item is no longer reachable
// from the queue's backing array.
func TestQueueTryGetDropsItem(t *testing.T) {
	q := NewQueue[*int](New(), "q")
	a, b := new(int), new(int)
	q.Put(a)
	q.Put(b)
	backing := q.items[:2]
	if got, ok := q.TryGet(); !ok || got != a {
		t.Fatal("TryGet did not return the head item")
	}
	if backing[0] != nil {
		t.Fatal("TryGet left the delivered item in the backing array")
	}
}

// BenchmarkEventQueue reports the queue's host cost per event on two
// delay mixes, each with 16384 events pending: E1's (the delay census
// of one functional Wilson solve, DESIGN.md §8), which lives in the
// lanes, and uniformly random delays, which live in the heap fallback.
func BenchmarkEventQueue(b *testing.B) {
	mixes := []struct {
		name   string
		delays func(*rand.Rand) Time
	}{
		{"e1", func(r *rand.Rand) Time {
			switch x := r.Intn(1000); {
			case x < 500:
				return 0
			case x < 667:
				return 50 * Microsecond
			case x < 778:
				return 208 * Nanosecond
			case x < 889:
				return 320 * Nanosecond
			case x < 944:
				return 96 * Nanosecond
			default:
				return 432 * Nanosecond
			}
		}},
		{"random", func(r *rand.Rand) Time { return Time(r.Int63n(int64(50 * Microsecond))) }},
	}
	for _, m := range mixes {
		b.Run(m.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			r := &relay{table: make([]Time, 1<<12), left: b.N}
			for i := range r.table {
				r.table[i] = m.delays(rng)
			}
			r.e = New()
			for i := 0; i < 1<<14; i++ {
				r.e.AfterHandler(r.table[i%len(r.table)], r, uint64(i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := r.e.RunAll(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(r.e.Executed()), "ns/event")
		})
	}
}

// relay re-queues each firing at the next delay of its table until left
// runs out.
type relay struct {
	e     *Engine
	table []Time
	left  int
}

func (r *relay) HandleEvent(arg uint64) {
	if r.left == 0 {
		return
	}
	r.left--
	r.e.AfterHandler(r.table[arg%uint64(len(r.table))], r, arg+7)
}
