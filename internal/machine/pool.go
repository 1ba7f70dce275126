package machine

import (
	"sync"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/hssl"
)

// Pool recycles the expensive per-machine allocations across machine
// lifetimes so a fleet building and tearing down hundreds of machines
// doesn't thrash the allocator: event-queue storage (the timer
// arena), HSSL in-flight frame rings, and — shared rather than
// recycled — the shard plan for a given topology, which is a pure
// function of (Shape, Shards) and therefore immutable and safe for any
// number of concurrent machines to read.
//
// A Pool is safe for concurrent use; a nil *Pool disables pooling
// everywhere it is accepted (every method no-ops), so single-machine
// callers need not care. The pool never holds live references:
// Storage is reference-cleared by event.Release, and frame rings are
// pure values (DESIGN.md §14).
type Pool struct {
	mu       sync.Mutex
	storages []event.Storage
	rings    [][]hssl.Frame
	plans    map[planKey][]int
	stats    PoolStats
}

// planKey identifies a shard plan: the plan depends only on topology
// and requested shard count, never on Workers or host cores.
type planKey struct {
	shape  geom.Shape
	shards int
}

// PoolStats counts pool traffic, for hygiene tests and the fleet
// driver's summary line.
type PoolStats struct {
	// StorageReused / StorageFresh count NewEngine calls served from the
	// free list vs. built cold.
	StorageReused, StorageFresh int
	// RingsReused / RingsFresh count wires built with a recycled
	// in-flight ring vs. starting empty.
	RingsReused, RingsFresh int
	// PlanHits / PlanMisses count shard-plan cache lookups.
	PlanHits, PlanMisses int
	// StorageIdle / RingsIdle are the current free-list depths.
	StorageIdle, RingsIdle int
	// PendingEvents sums the still-queued events across idle storages.
	// Always zero — Release clears every item — and asserted so by the
	// lifecycle-hygiene tests: a nonzero value means a dead machine's
	// timers or callbacks leaked into the pool.
	PendingEvents int
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{plans: make(map[planKey][]int)}
}

// NewEngine returns a fresh event engine, reusing pooled queue storage
// when available. With a nil pool it is event.New.
func (p *Pool) NewEngine() *event.Engine {
	if p == nil {
		return event.New()
	}
	p.mu.Lock()
	var st event.Storage
	if n := len(p.storages); n > 0 {
		st = p.storages[n-1]
		p.storages[n-1] = event.Storage{}
		p.storages = p.storages[:n-1]
		p.stats.StorageReused++
	} else {
		p.stats.StorageFresh++
	}
	p.mu.Unlock()
	return event.NewWith(st)
}

// Reclaim takes back a finished machine's recyclable storage: the
// engine's event-queue storage and every wire's in-flight ring. The engine must
// already be shut down, and neither it nor the machine may be used
// afterwards. Shard engines built by Clusterize keep their storage (the
// cluster owns them); only the host engine's storage is pooled. Nil
// pool, engine, or machine are all no-ops — except that the machine's
// telemetry registry is always cleared, pool or no pool, so teardown
// never leaves emit closures of a dead machine registered anywhere.
func (p *Pool) Reclaim(eng *event.Engine, m *Machine) {
	if m != nil && m.Reg != nil {
		m.Reg.Clear()
	}
	if p == nil {
		return
	}
	var st event.Storage
	if eng != nil {
		st = eng.Release()
	}
	var rings [][]hssl.Frame
	if m != nil {
		for _, ws := range m.wires {
			for _, w := range ws {
				if r := w.ReleaseRing(); cap(r) > 0 {
					rings = append(rings, r)
				}
			}
		}
	}
	p.mu.Lock()
	if st.Cap() > 0 {
		p.storages = append(p.storages, st)
	}
	p.rings = append(p.rings, rings...)
	p.mu.Unlock()
}

// ring hands out a recycled frame ring, or nil when the pool is empty
// or nil.
func (p *Pool) ring() []hssl.Frame {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.rings); n > 0 {
		r := p.rings[n-1]
		p.rings[n-1] = nil
		p.rings = p.rings[:n-1]
		p.stats.RingsReused++
		return r
	}
	p.stats.RingsFresh++
	return nil
}

// shardPlan returns the rank→shard map for a topology, shared and
// immutable across every machine with the same (Shape, Shards). Callers
// must treat the returned slice as read-only. With a nil pool the plan
// is computed fresh.
func (p *Pool) shardPlan(shape geom.Shape, shards, v, per int) []int {
	if p == nil {
		return computeShardPlan(v, per)
	}
	key := planKey{shape: shape, shards: shards}
	p.mu.Lock()
	defer p.mu.Unlock()
	if plan, ok := p.plans[key]; ok {
		p.stats.PlanHits++
		return plan
	}
	p.stats.PlanMisses++
	plan := computeShardPlan(v, per)
	p.plans[key] = plan
	return plan
}

func computeShardPlan(v, per int) []int {
	plan := make([]int, v)
	for r := 0; r < v; r++ {
		plan[r] = r / per
	}
	return plan
}

// Stats returns a snapshot of pool traffic.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.StorageIdle = len(p.storages)
	s.RingsIdle = len(p.rings)
	for _, st := range p.storages {
		s.PendingEvents += st.Pending()
	}
	return s
}
