package main

import (
	"fmt"
	"math"

	"qcdoc/internal/checkpoint"
	"qcdoc/internal/core"
	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
)

// The E1 functional solve, exactly as BenchmarkE1FunctionalWilson runs
// it: a 16-node machine on the serial engine, an 8^4 lattice, Wilson
// CGNE at mass 0.5, double precision, tol 1e-4.
const (
	e1Mass    = 0.5
	e1Tol     = 1e-4
	e1MaxIter = 100
)

func e1Shape() geom.Shape { return geom.MakeShape(2, 2, 2, 2) }

// e1Workload is one deep serial event heap: the paper's E1 solve, where
// the event queue is most of host time. The single-threaded baseline.
func e1Workload() workload {
	return workload{
		name:      "e1_wilson",
		setupReps: 5,
		setup: func(seed uint64, sp *spans) (instance, error) {
			global := lattice.Shape4{8, 8, 8, 8}
			gauge := lattice.NewGaugeField(global)
			gauge.Randomize(seed)
			rhs := lattice.NewFermionField(global)
			rhs.Gaussian(seed + 1)
			sess, err := bootSession(machine.DefaultConfig(e1Shape()), global, sp)
			if err != nil {
				return nil, err
			}
			w := &e1{sess: sess, gauge: gauge, rhs: rhs}
			if seed == defaultSeed {
				pin := e1Pin()
				w.pin = &pin
			}
			return w, nil
		},
	}
}

// bootSession is core.NewSession split at its public calls, so the
// traced run can time machine.Build and Boot separately. The session
// owns no pool.
func bootSession(cfg machine.Config, global lattice.Shape4, sp *spans) (*core.Session, error) {
	lay, err := core.NewLayout(cfg.Shape, global)
	if err != nil {
		return nil, err
	}
	eng := event.New()
	id := sp.begin("machine.Build")
	m := machine.Build(eng, cfg)
	sp.end(id)
	id = sp.begin("machine.Boot")
	err = m.Boot()
	sp.end(id)
	if err != nil {
		eng.Shutdown()
		return nil, fmt.Errorf("boot %v: %w", cfg.Shape, err)
	}
	return &core.Session{Eng: eng, M: m, Lay: lay}, nil
}

// solveOut is what a distributed solve produced, as the checks compare
// it.
type solveOut struct {
	Iterations   int     `json:"iterations"`
	Applications int     `json:"applications"`
	SimTimePS    int64   `json:"sim_time_ps"`
	SimNsPerIter float64 `json:"sim_ns_per_iter"`
	EffPct       float64 `json:"efficiency_pct"`
	CRC          uint32  `json:"solution_crc"`
	RelResidual  float64 `json:"rel_residual"`
	TrueResidual float64 `json:"true_residual"`
}

// e1Pin returns the default-seed fixed points: 16 iterations taking
// 33216312584 sim-ps, which the ROADMAP quotes as 2076020 sim-ns/iter
// at 39.58 % of peak (the paper: 40 %).
func e1Pin() solveOut {
	return solveOut{Iterations: 16, SimTimePS: 33216312584, SimNsPerIter: 2076020, EffPct: 39.58, CRC: 1879758821}
}

// layerCounts are the simulator's public counters read around one job.
type layerCounts struct {
	events, words, resends, frames, corrupted float64
	peakPending                               int
}

// countersOf reads a machine's cumulative counters; executed is the
// number of events its engine or engines have dispatched.
func countersOf(executed uint64, m *machine.Machine) layerCounts {
	sc, hs := m.Stats(), m.WireStats()
	return layerCounts{
		events:    float64(executed),
		words:     float64(sc.WordsSent),
		resends:   float64(sc.Resends),
		frames:    float64(hs.Frames),
		corrupted: float64(hs.Corrupted),
	}
}

// since returns the counts accumulated between an earlier reading and c.
func (c layerCounts) since(before layerCounts) layerCounts {
	return layerCounts{
		events:    c.events - before.events,
		words:     c.words - before.words,
		resends:   c.resends - before.resends,
		frames:    c.frames - before.frames,
		corrupted: c.corrupted - before.corrupted,
	}
}

// add accumulates another job's counters; the peak is the larger one.
func (c *layerCounts) add(o layerCounts) {
	c.events += o.events
	c.words += o.words
	c.resends += o.resends
	c.frames += o.frames
	c.corrupted += o.corrupted
	c.peakPending = max(c.peakPending, o.peakPending)
}

type e1 struct {
	sess        *core.Session
	gauge       *lattice.GaugeField
	rhs         *lattice.FermionField
	pin         *solveOut // non-nil at the default seed
	first, last *solveOut
	traced      []layerCounts
}

// job solves on a freshly booted machine, as BenchmarkE1FunctionalWilson
// does per solve: the first job uses the set-up's session, later jobs
// boot their own (well under 0.1 % of a job), so every job starts from
// the same machine state and simulated memory does not grow.
func (w *e1) job(sp *spans) error {
	if w.sess == nil {
		sess, err := bootSession(machine.DefaultConfig(e1Shape()), w.gauge.L, sp)
		if err != nil {
			return err
		}
		w.sess = sess
	}
	defer w.close()
	eng, m := w.sess.Eng, w.sess.M
	before := countersOf(eng.Executed(), m)
	peak := 0
	if sp != nil {
		// A serial engine: Pending is this engine's own queue.
		eng.SetTracer(func(event.Time) {
			if p := eng.Pending(); p > peak {
				peak = p
			}
		})
		defer eng.SetTracer(nil)
	}
	id := sp.begin("core.Session.SolveWilson")
	x, met, err := w.sess.SolveWilson(w.gauge, w.rhs, e1Mass, fermion.Double, e1Tol, e1MaxIter)
	sp.end(id)
	if err != nil {
		return fmt.Errorf("solve: %w", err)
	}
	if sp != nil {
		c := countersOf(eng.Executed(), m).since(before)
		c.peakPending = peak
		w.traced = append(w.traced, c)
	}
	out := solveOut{
		Iterations:   met.Iterations,
		Applications: met.Applications,
		SimTimePS:    int64(met.SimTime),
		SimNsPerIter: float64(met.SimTime) / 1000 / float64(met.Iterations),
		EffPct:       100 * met.Efficiency,
		CRC:          checkpoint.FermionCRC(x),
		RelResidual:  met.RelResidual,
		TrueResidual: wilsonResidual(w.gauge, x, w.rhs, e1Mass),
	}
	w.last = &out
	return w.check(out)
}

// check compares a solve with the pinned fixed points, or with the
// run's first solve. A converged solve must also solve D x = b by the
// single-process reference operator's count, not only the solver's.
func (w *e1) check(out solveOut) error {
	if out.Iterations >= e1MaxIter || out.RelResidual > e1Tol || !(out.TrueResidual <= e1Tol) {
		return fmt.Errorf("solve did not converge: %d iterations, residual %g, true residual %g",
			out.Iterations, out.RelResidual, out.TrueResidual)
	}
	want := w.pin
	if want == nil {
		if w.first == nil {
			w.first = &out
			return nil
		}
		want = w.first
	}
	if out.Iterations != want.Iterations || out.SimTimePS != want.SimTimePS || out.CRC != want.CRC ||
		math.Round(out.SimNsPerIter) != math.Round(want.SimNsPerIter) ||
		math.Round(100*out.EffPct) != math.Round(100*want.EffPct) {
		return fmt.Errorf("E1 outputs drifted: got %d iter, %d sim-ps, %.2f %%peak, crc %#x; want %d, %d, %.2f, %#x",
			out.Iterations, out.SimTimePS, out.EffPct, out.CRC,
			want.Iterations, want.SimTimePS, want.EffPct, want.CRC)
	}
	return nil
}

// wilsonResidual is |D x - b| / |b| with the reference operator.
func wilsonResidual(g *lattice.GaugeField, x, b *lattice.FermionField, mass float64) float64 {
	r := lattice.NewFermionField(b.L)
	fermion.NewWilson(g, mass).Apply(r, x)
	r.AXPY(-1, b)
	return math.Sqrt(r.Norm2() / b.Norm2())
}

func (w *e1) sim() map[string]any {
	return map[string]any{
		"solve":                w.last,
		"paper_efficiency_pct": 40.0,
	}
}

func (w *e1) layers(lr *layerRun) error {
	m := lr.m
	setCounts(m, w.traced, lr.walls(false))
	m.set("event.peak_pending", medianOf(w.traced, func(c layerCounts) float64 { return float64(c.peakPending) }))
	setMachineSpans(m, lr.sp)
	m.set("memsys.first_touch_mb", firstTouchMB(lr.jobs))
	if w.last != nil {
		m.set("solver.iterations.wilson", float64(w.last.Iterations))
		m.set("solver.applications.wilson", float64(w.last.Applications))
		m.set("core.halo_words_per_iter.wilson", m.get("scu.words_sent")/float64(w.last.Iterations))
		m.set("core.sim_ns_per_iter", w.last.SimNsPerIter)
		m.set("core.efficiency_pct", w.last.EffPct)
	}
	m.set("core.solve_s.wilson", median(lr.sp.durations("core.Session.SolveWilson")))

	// The cluster layer, on the same solve: the sharded engine (one
	// shard per daughterboard) at two workers and at one.
	t2, cl, events, err := w.shardedSolve(2, lr.sp)
	if err != nil {
		return err
	}
	t1, _, _, err := w.shardedSolve(1, lr.sp)
	if err != nil {
		return err
	}
	m.set("event.windows", float64(cl.Windows))
	m.set("event.cross_messages", float64(cl.CrossMessages))
	m.set("event.events_per_window", float64(events)/float64(cl.Windows))
	m.set("event.shard_speedup", t1/t2)

	m.set("latmath.flops_per_byte.wilson", flopsPerByte(fermion.WilsonKind, 0))
	lay, err := core.NewLayout(e1Shape(), w.gauge.L)
	if err != nil {
		return err
	}
	mf, err := refMflops(fermion.WilsonKind, lay.Dec.Local, 0, e1Mass, lr.seed, lr.sp)
	m.set("fermion.host_mflops.wilson", mf)
	return err
}

// shardedSolve runs the job's solve on the sharded engine at the given
// worker count and returns its host seconds, the cluster's window and
// mailbox counts, and the events all shards dispatched. The outputs
// must equal the serial engine's bit for bit.
func (w *e1) shardedSolve(workers int, sp *spans) (float64, event.ClusterStats, uint64, error) {
	cfg := machine.DefaultConfig(e1Shape())
	cfg.Shards = machine.ShardAuto
	cfg.Workers = workers
	sp.setJob(fmt.Sprintf("sharded-workers%d", workers))
	sess, err := bootSession(cfg, w.gauge.L, sp)
	if err != nil {
		return 0, event.ClusterStats{}, 0, err
	}
	defer sess.Close()
	c := sess.Eng.Cluster()
	cl0, ev0 := c.Stats(), clusterExecuted(c)
	start := wallNow()
	id := sp.begin(fmt.Sprintf("core.Session.SolveWilson[workers=%d]", workers))
	x, met, err := sess.SolveWilson(w.gauge, w.rhs, e1Mass, fermion.Double, e1Tol, e1MaxIter)
	sp.end(id)
	secs := secondsSince(start)
	if err != nil {
		return 0, event.ClusterStats{}, 0, fmt.Errorf("sharded solve: %w", err)
	}
	if w.last == nil || int64(met.SimTime) != w.last.SimTimePS || checkpoint.FermionCRC(x) != w.last.CRC {
		return 0, event.ClusterStats{}, 0, fmt.Errorf("sharded solve at %d workers differs from the serial engine's", workers)
	}
	cl := c.Stats()
	return secs, event.ClusterStats{
		Windows:       cl.Windows - cl0.Windows,
		Barriers:      cl.Barriers - cl0.Barriers,
		CrossMessages: cl.CrossMessages - cl0.CrossMessages,
		GlobalEvents:  cl.GlobalEvents - cl0.GlobalEvents,
	}, clusterExecuted(c) - ev0, nil
}

// clusterExecuted sums the events every shard has dispatched.
func clusterExecuted(c *event.Cluster) uint64 {
	var n uint64
	for i := 0; i < c.NumShards(); i++ {
		n += c.Shard(i).Executed()
	}
	return n
}

func (w *e1) close() {
	if w.sess != nil {
		w.sess.Close()
		w.sess = nil
	}
}
