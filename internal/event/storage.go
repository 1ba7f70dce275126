package event

// Storage is the recyclable backing memory of an engine's event queue
// (queue.go): the two event slabs and the fallback heap's key array,
// which grow to a simulation's high-water mark and, on a fleet host
// building hundreds of machines, are worth keeping warm across engine
// lifetimes instead of re-growing from nothing every time. The lanes
// need no memory of their own; they are linked through the slabs. A
// Storage is inert — it schedules nothing and holds no references
// (Release clears every slab slot, so a pooled Storage cannot pin a dead
// machine's callbacks or timers in memory). The zero value is valid and
// simply provides no preallocated capacity.
//
// The intended cycle (machine.Pool drives it):
//
//	st := pool.get()            // possibly from an earlier machine
//	eng := event.NewWith(st)    // engine reuses the slabs and heap
//	... simulate ...
//	eng.Shutdown()
//	pool.put(eng.Release())     // they go back, cleared
type Storage struct {
	q eventQueue
}

// Cap reports how many events the storage holds before its slabs must
// grow (the timer/event arena size a NewWith engine starts with).
func (s Storage) Cap() int { return s.q.items.capacity() + s.q.xitems.capacity() }

// Pending reports how many live events the storage still holds. A
// Storage obtained from Release is always empty; the method exists so
// lifecycle-hygiene tests can assert that no timer or callback survived
// a machine's teardown.
func (s Storage) Pending() int { return s.q.n }

// NewWith creates an engine with the clock at zero whose event queue
// reuses the given storage's backing arrays. Equivalent to New when st
// is the zero Storage.
func NewWith(st Storage) *Engine {
	e := New()
	e.q = st.q
	return e
}

// Release detaches and returns the engine's backing storage, clearing
// every still-queued event so the arrays hold no references. The engine
// must be finished (typically Shutdown has run); it is unusable
// afterwards. On a clustered engine only the receiver shard's own
// storage is released — shard engines are built by Clusterize and are
// not individually pooled.
func (e *Engine) Release() Storage {
	e.q.reset()
	st := Storage{q: e.q}
	e.q = eventQueue{}
	return st
}
