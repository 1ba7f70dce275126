// Package event provides the discrete-event simulation core used by the
// QCDOC machine model: a virtual clock with picosecond resolution, a
// stable event queue, and a two-tier process model — coroutine processes
// (Spawn/Proc, goroutines with a single token of control, for complex
// control flow) and zero-goroutine continuation processes (At/After
// callbacks and StateMachine, for the hot per-link hardware services).
// Everything runs on the engine goroutine one event at a time, so no
// locking is needed anywhere in the simulator's guts; see
// statemachine.go for the tier model.
//
// The engine is deliberately sequential: the paper's machine is
// self-synchronizing at the link level (§2.2), and a conservative,
// deterministic scheduler is what makes the bit-identical reproducibility
// experiment (E10) meaningful.
package event

import (
	"fmt"
	"sort"
)

// Time is a point in simulated time, in picoseconds. Picoseconds make
// every clock of interest exact: a 500 MHz processor cycle is 2000 ps, a
// 40 MHz global clock tick is 25000 ps.
type Time int64

// Convenient durations (Time is also used for durations).
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a Time later than any practical simulation horizon.
const Forever Time = 1<<63 - 1

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.6gns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Seconds converts a duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Hz is a clock frequency.
type Hz int64

// Common QCDOC clock rates (§2.1, §2.4, §4).
const (
	MHz Hz = 1_000_000
	GHz Hz = 1000 * MHz
)

// Cycle returns the period of one clock cycle. Periods are exact for the
// frequencies the simulator uses (factors of 1 THz).
func (f Hz) Cycle() Time { return Time(int64(Second) / int64(f)) }

// Cycles returns the duration of n clock cycles.
func (f Hz) Cycles(n int64) Time { return Time(n) * f.Cycle() }

// CyclesOf returns how many whole cycles fit in d.
func (f Hz) CyclesOf(d Time) int64 { return int64(d) / int64(f.Cycle()) }

// Handler is a pre-bound event target for the continuation tier's hot
// paths. Scheduling a Handler copies only an interface word and a
// uint64 argument into the event item, so services that fire an event
// per wire frame (HSSL delivery, SCU pumps, ack timers) can run with
// zero allocations per event — a closure passed to At/After would be a
// fresh heap object every time. The arg value is returned to the
// handler verbatim; targets use it to distinguish pipeline stages or to
// carry a generation stamp.
type Handler interface {
	HandleEvent(arg uint64)
}

// An item in the event queue: a pre-bound handler invocation (h, arg),
// or a closure wrapped as a funcEvent. flow is the causal trace ID
// inherited from the event that scheduled this one (trace.go); it rides
// in the queue either way and is only ever read at dispatch, so it
// cannot perturb event order.
type item struct {
	h    Handler
	arg  uint64
	flow uint64
}

// funcEvent queues a closure as a Handler. A func value is one pointer
// word, so the conversion to Handler allocates nothing.
type funcEvent func()

func (f funcEvent) HandleEvent(uint64) { f() }

// Engine is a discrete-event scheduler. All simulation activity —
// scheduled callbacks and process resumptions — runs on the goroutine
// that calls Run, one step at a time; processes hand control back and
// forth through unbuffered channels, so engine and process code never run
// concurrently and shared simulator state needs no locks.
type Engine struct {
	now        Time
	q          eventQueue // local and cross-shard payload events (queue.go)
	seq        uint64
	park       chan struct{} // a process signals here when it yields or exits
	live       int           // processes that have started and not finished
	blocked    map[*Proc]string
	stopped    bool
	terminated bool // Shutdown has been called; parked processes unwind

	machines []*StateMachine // registered continuation-tier processes
	tracer   func(at Time)   // observes every dispatched event, if set
	rec      *Recorder       // flight recorder, if attached
	ring     *shardRing      // this shard's ring within rec
	executed uint64          // events dispatched since New

	// Causal-flow state (trace.go): curFlow is the trace ID of the event
	// being dispatched (inherited by everything it schedules), flowSeq
	// numbers the flows this shard has minted, lastSeq is the sequence
	// number of the current event (reused by span marks so marking never
	// consumes a sequence number — attaching a recorder must not move
	// any event's seq).
	curFlow uint64
	flowSeq uint64
	lastSeq uint64

	// Shard identity when this engine is part of a Cluster (cluster.go).
	// An unclustered engine is its own shard 0.
	cluster *Cluster
	shard   int
}

// New creates an engine with the clock at zero.
func New() *Engine {
	return &Engine{
		park:    make(chan struct{}),
		blocked: make(map[*Proc]string),
	}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at time t (clamped to now if in the past).
// Events at equal times run in scheduling order.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	it := enqueue(e, &e.q.items, t, 0)
	it.h, it.flow = funcEvent(fn), e.curFlow
}

// After schedules fn to run d from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// AtHandler schedules h.HandleEvent(arg) at time t (clamped to now if in
// the past). Unlike At, it allocates nothing per call: the handler and
// argument travel inside the event item.
//qcdoc:noalloc
func (e *Engine) AtHandler(t Time, h Handler, arg uint64) {
	if t < e.now {
		t = e.now
	}
	it := enqueue(e, &e.q.items, t, 0)
	it.h, it.arg, it.flow = h, arg, e.curFlow
}

// enqueue queues an event at time t under the next sequence number, in
// slab sl of e's queue (tag is xslot for the payload slab), and returns
// it for the caller to fill.
//
//qcdoc:noalloc
func enqueue[T any](e *Engine, sl *slab[T], t Time, tag uint32) *T {
	e.seq++
	st := stamp{t, e.seq}
	slot, ev := sl.alloc(st)
	e.q.push(e.now, st, slot|tag)
	return ev
}

// NewFlow mints a fresh causal-trace ID, unique per shard and stable
// across runs and worker counts (shard identity and a per-shard
// counter, both deterministic). The ID does not become current until
// SetFlow installs it.
//
//qcdoc:noalloc
func (e *Engine) NewFlow() uint64 {
	e.flowSeq++
	return uint64(e.shard+1)<<40 | e.flowSeq
}

// SetFlow makes f the current causal flow — every event scheduled from
// now on (until the next dispatch or SetFlow) carries f in its trace
// slot — and returns the previous flow so initiators can restore it.
// Flow state is pure trace metadata: it is read only by the flight
// recorder, so the simulated event stream is identical whether or not
// anyone ever sets a flow.
//
//qcdoc:noalloc
func (e *Engine) SetFlow(f uint64) (prev uint64) {
	prev = e.curFlow
	e.curFlow = f
	return prev
}

// CurrentFlow returns the flow ID of the event being dispatched (0 when
// nothing upstream started a flow).
func (e *Engine) CurrentFlow() uint64 { return e.curFlow }

// AfterHandler schedules h.HandleEvent(arg) d from now, allocation-free.
//qcdoc:noalloc
func (e *Engine) AfterHandler(d Time, h Handler, arg uint64) {
	e.AtHandler(e.now+d, h, arg)
}

// Stop makes Run return after the current event completes. On a
// clustered engine the request is honored at the next window barrier —
// never mid-window, where observing another shard's request would make
// the outcome depend on execution interleaving.
func (e *Engine) Stop() {
	if e.cluster != nil {
		e.cluster.stopReq.Store(true)
		return
	}
	e.stopped = true
}

// ErrStall is reported by Run when live processes remain but no event can
// ever wake them — the simulated machine has deadlocked. The paper notes
// that a node which stops communicating stalls the whole machine (§2.2);
// the engine surfaces that as an explicit error naming the blocked
// processes.
type ErrStall struct {
	At      Time
	Blocked []string
}

func (e *ErrStall) Error() string {
	return fmt.Sprintf("event: simulation stalled at %v with %d blocked processes %v",
		e.At, len(e.Blocked), e.Blocked)
}

// Run executes events in time order until the queue is empty, the horizon
// is passed, or Stop is called. If the queue drains while non-daemon
// processes are still blocked, Run returns an *ErrStall naming them;
// blocked daemons (link handlers, clock services) are normal quiescence.
// On a clustered engine Run must be called on the host shard (shard 0)
// and drives the whole cluster's window loop.
func (e *Engine) Run(until Time) error {
	if e.cluster != nil {
		if e.shard != 0 {
			panic("event: Run on a clustered engine must use the host shard")
		}
		return e.cluster.run(until)
	}
	return e.runLocal(until)
}

// runLocal is the single-shard event loop.
func (e *Engine) runLocal(until Time) error {
	e.stopped = false
	for !e.stopped {
		b := e.q.next()
		if b < 0 {
			names := make([]string, 0, len(e.blocked))
			for p, what := range e.blocked {
				if !p.daemon {
					names = append(names, p.name+" ("+what+")")
				}
			}
			if len(names) > 0 {
				sort.Strings(names)
				return &ErrStall{At: e.now, Blocked: names}
			}
			return nil
		}
		if e.q.top[b].at > until {
			e.now = until
			return nil
		}
		e.dispatch(b)
	}
	return nil
}

// RunAll runs with no horizon.
func (e *Engine) RunAll() error { return e.Run(Forever) }

// Pending reports the number of queued events. On the host shard of a
// cluster it sums every shard's queues (barrier-serial contexts only).
func (e *Engine) Pending() int {
	n := e.q.n
	if e.cluster != nil && e.shard == 0 {
		for _, s := range e.cluster.shards[1:] {
			n += s.q.n
		}
	}
	return n
}

// Executed reports the number of events dispatched since the engine was
// created.
func (e *Engine) Executed() uint64 { return e.executed }

// SetTracer installs fn to observe the timestamp of every dispatched
// event (nil clears it). Determinism tests digest the observed sequence:
// two runs of the same seeded simulation must dispatch identical event
// streams.
func (e *Engine) SetTracer(fn func(at Time)) { e.tracer = fn }

// SetRecorder attaches a flight recorder that captures every dispatched
// event into its ring (nil detaches). Recording schedules no events and
// allocates nothing per dispatch, so the simulated event stream is
// identical with or without it; see trace.go. On the host shard of a
// cluster the recorder attaches to every shard, each getting its own
// ring; Dump and the Chrome-trace export merge them by simulated time.
func (e *Engine) SetRecorder(r *Recorder) {
	if e.cluster != nil && e.shard == 0 {
		for _, s := range e.cluster.shards {
			s.setRecorderLocal(r)
		}
		return
	}
	e.setRecorderLocal(r)
}

func (e *Engine) setRecorderLocal(r *Recorder) {
	e.rec = r
	if r == nil {
		e.ring = nil
	} else {
		e.ring = r.ringFor(e.shard)
	}
}

// Recorder returns the attached flight recorder, or nil.
func (e *Engine) Recorder() *Recorder { return e.rec }

// LiveProcs reports how many coroutine-tier processes have started and
// not yet finished (continuation-tier processes hold no goroutines and
// are not counted).
func (e *Engine) LiveProcs() int { return e.live }

// Proc is a simulation process: a goroutine that alternates with the
// engine via an explicit control token. Process code may only touch
// simulator state between its blocking calls (Sleep, Wait, queue Get),
// which is safe because the engine is parked whenever the process runs.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	done   bool
	daemon bool
	killed bool
}

// procKilled is the panic value used to unwind parked processes when the
// engine shuts down.
type procKilled struct{}

// Spawn starts a new process executing fn. The process begins running at
// the current simulated time (after already-queued events at that time).
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	e.live++
	go func() {
		<-p.resume // first activation comes through the event queue
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(procKilled); !ok {
					panic(r)
				}
			}
			p.done = true
			e.live--
			e.park <- struct{}{}
		}()
		fn(p)
	}()
	e.At(e.now, p.activate)
	return p
}

// SpawnDaemon starts a process that is allowed to remain blocked when the
// simulation quiesces — hardware service loops such as link receivers.
// A drained event queue with only daemons blocked is a normal end of Run,
// not a stall.
func (e *Engine) SpawnDaemon(name string, fn func(*Proc)) *Proc {
	p := e.Spawn(name, fn)
	p.daemon = true
	return p
}

// Shutdown unwinds every parked process so their goroutines exit. The
// engine is unusable afterwards. Call it when a simulation (and its
// machine full of daemon link handlers) is finished, particularly in
// tests that build many machines. On a clustered engine it unwinds the
// whole cluster (worker pool included), whichever shard it is called on.
func (e *Engine) Shutdown() {
	if e.cluster != nil {
		e.cluster.shutdown()
		return
	}
	e.shutdownLocal()
}

func (e *Engine) shutdownLocal() {
	e.terminated = true
	for len(e.blocked) > 0 {
		for p := range e.blocked {
			p.wake() // the process observes terminated inside yield and unwinds
			break
		}
	}
}

// activate transfers control to the process until it yields or exits.
// It runs as an event on the engine goroutine.
func (p *Proc) activate() {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.eng.park
}

// yield hands control back to the engine and blocks until reactivated.
func (p *Proc) yield(reason string) {
	if p.eng.terminated || p.killed {
		panic(procKilled{})
	}
	p.eng.blocked[p] = reason
	p.eng.park <- struct{}{}
	<-p.resume
	delete(p.eng.blocked, p)
	if p.eng.terminated || p.killed {
		panic(procKilled{})
	}
}

// Kill marks the process for unwinding: at its next resumption —
// scheduled immediately if it is parked, its already-pending wake
// otherwise — it panics out through its blocking call and the goroutine
// exits, an engine Shutdown scoped to one process. Fault injection uses
// it to model a node whose software dies mid-run: the process gets no
// chance to run cleanup code at simulated times it would never have
// reached.
func (p *Proc) Kill() {
	if p.done || p.killed {
		return
	}
	p.killed = true
	if _, parked := p.eng.blocked[p]; parked {
		p.eng.At(p.eng.now, p.wake)
	}
}

// Killed reports whether Kill has been called on the process.
func (p *Proc) Killed() bool { return p.killed }

// IsKillPanic reports whether a recovered panic value is the engine's
// process-unwind signal (from Shutdown or Proc.Kill) rather than an
// application panic. Code that recovers around process bodies must
// either re-panic such values or treat them as cancellation — never as
// an application error.
func IsKillPanic(r any) bool {
	_, ok := r.(procKilled)
	return ok
}

// Name returns the process name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Sleep suspends the process for d of simulated time.
func (p *Proc) Sleep(d Time) {
	p.eng.After(d, p.wake)
	p.yield("sleep")
}

// SleepUntil suspends the process until time t.
func (p *Proc) SleepUntil(t Time) {
	p.eng.At(t, p.wake)
	p.yield("sleep")
}

func (p *Proc) wake() {
	if p.done {
		return
	}
	p.resume <- struct{}{}
	<-p.eng.park
}

// Gate is a broadcast condition: processes Wait on it; Fire wakes all
// current waiters (at the current simulated time).
type Gate struct {
	eng     *Engine
	waiters []gateWaiter
	gen     uint64 // stamps timed waits; see WaitUntil
}

// gateWaiter is one parked process. gen is nonzero for timed waits: the
// deadline event identifies its waiter by generation, so a Fire (which
// clears the list) or an earlier deadline leaves nothing for a stale
// deadline event to find.
type gateWaiter struct {
	p   *Proc
	gen uint64
}

// NewGate creates a gate on the engine.
func NewGate(e *Engine) *Gate { return &Gate{eng: e} }

// Wait suspends p until the next Fire. The process must live on the
// gate's engine: blocking is shard-local state, and a cross-shard wait
// would let one shard's Fire mutate another shard's parked process.
func (g *Gate) Wait(p *Proc, what string) {
	if p.eng != g.eng {
		panic("event: Gate.Wait across engines (shard boundary)")
	}
	g.waiters = append(g.waiters, gateWaiter{p: p})
	p.yield(what)
}

// WaitUntil suspends p until the next Fire or until the deadline,
// whichever comes first, reporting whether the gate fired (false means
// the deadline passed). A deadline at or before the current time returns
// false without parking. This is the primitive under every recovery
// timeout: the deadline is a simulated-clock event, so timed waits are
// as deterministic as untimed ones.
func (g *Gate) WaitUntil(p *Proc, what string, deadline Time) bool {
	if p.eng != g.eng {
		panic("event: Gate.WaitUntil across engines (shard boundary)")
	}
	if deadline <= g.eng.now {
		return false
	}
	g.gen++
	gen := g.gen
	g.waiters = append(g.waiters, gateWaiter{p: p, gen: gen})
	timedOut := false
	g.eng.At(deadline, func() {
		if g.removeWaiter(gen) {
			timedOut = true
			p.wake()
		}
	})
	p.yield(what)
	return !timedOut
}

// removeWaiter drops the timed waiter with the given generation,
// reporting whether it was still parked on the gate.
func (g *Gate) removeWaiter(gen uint64) bool {
	for i := range g.waiters {
		if g.waiters[i].gen == gen {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return true
		}
	}
	return false
}

// Fire wakes every process currently waiting on the gate.
func (g *Gate) Fire() {
	ws := g.waiters
	g.waiters = nil
	for _, w := range ws {
		g.eng.At(g.eng.now, w.p.wake)
	}
}

// Waiting reports the number of processes parked on the gate.
func (g *Gate) Waiting() int { return len(g.waiters) }

// Queue is an unbounded FIFO of items with optional delivery delay; the
// basic building block for modelled wires, mailboxes and DMA completion
// notifications. Items become visible to Get only at their delivery time.
type Queue[T any] struct {
	eng    *Engine
	name   string
	items  []T
	gate   Gate
	closed bool
}

// NewQueue creates a queue on the engine.
func NewQueue[T any](e *Engine, name string) *Queue[T] {
	return &Queue[T]{eng: e, name: name, gate: Gate{eng: e}}
}

// Put makes item available immediately.
func (q *Queue[T]) Put(item T) {
	q.items = append(q.items, item)
	q.gate.Fire()
}

// PutAfter makes item available d from now. Items put with different
// delays are delivered in arrival-time order (ties broken by put order).
func (q *Queue[T]) PutAfter(d Time, item T) {
	q.eng.After(d, func() { q.Put(item) })
}

// TryGet removes and returns the head item if one is available now.
func (q *Queue[T]) TryGet() (T, bool) {
	var zero T
	if len(q.items) == 0 {
		return zero, false
	}
	item := q.items[0]
	q.items[0] = zero // drop the queue's reference to the delivered item
	q.items = q.items[1:]
	return item, true
}

// Get blocks the process until an item is available, then removes and
// returns it. If several processes wait, wake order follows wait order.
func (q *Queue[T]) Get(p *Proc) T {
	for {
		if item, ok := q.TryGet(); ok {
			return item
		}
		q.gate.Wait(p, "recv "+q.name)
	}
}

// GetTimeout is Get with a deadline d from now: it returns the next item
// and true, or the zero value and false once the deadline passes with the
// queue still empty. A final poll after the deadline catches an item
// delivered by an event at exactly the deadline timestamp.
func (q *Queue[T]) GetTimeout(p *Proc, d Time) (T, bool) {
	deadline := q.eng.now + d
	for {
		if item, ok := q.TryGet(); ok {
			return item, true
		}
		if !q.gate.WaitUntil(p, "recv "+q.name, deadline) {
			return q.TryGet()
		}
	}
}

// Len reports how many items are currently available.
func (q *Queue[T]) Len() int { return len(q.items) }
