package main

import (
	"errors"
	"fmt"
	"strings"

	"qcdoc/internal/checkpoint"
	"qcdoc/internal/core"
	"qcdoc/internal/event"
	"qcdoc/internal/faultplan"
	"qcdoc/internal/fermion"
	"qcdoc/internal/fleet"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
)

// campaignWorkers is the campaign worker pool: one run per host core
// on the two-core hosts the benchmark is sized for.
const campaignWorkers = 2

// runPin is the pinned default-seed outcome of one campaign run.
type runPin struct {
	digest uint64
	// unrecoverable: the run must exhaust the recovery ladder with
	// core.ErrCheckpointUnrecoverable.
	unrecoverable bool
}

// operatorMixWorkload is the only workload running the clover, ASQTAD
// and DWF distributed operators and their halo exchanges, as one fleet
// campaign over a shared pool.
func operatorMixWorkload() workload {
	return workload{
		name:       "operator_mix",
		setupReps:  21,
		setupBatch: 100,
		setup: func(seed uint64, sp *spans) (instance, error) {
			return newCampaign(operatorMixSpecs(seed), seed == defaultSeed, operatorMixPins()), nil
		},
	}
}

// operatorMixSpecs sweeps wilson, clover and asqtad over two lattices
// on a 2x2 machine, plus one DWF run at Ls=2 (Ls=4 would make DWF the
// campaign's whole critical path).
func operatorMixSpecs(seed uint64) []fleet.Spec {
	base := fleet.Spec{Machine: geom.MakeShape(2, 2), Mass: 0.5, Tol: 1e-6, MaxIter: 500, Seed: seed}
	specs := fleet.Sweep(base, []lattice.Shape4{{6, 6, 4, 4}, {6, 6, 4, 8}},
		[]fermion.OpKind{fermion.WilsonKind, fermion.CloverKind, fermion.AsqtadKind}, nil)
	dwf := base
	dwf.Ls = 2
	return append(specs, fleet.Sweep(dwf, []lattice.Shape4{{6, 6, 4, 4}}, []fermion.OpKind{fermion.DWFKind}, nil)...)
}

func operatorMixPins() []runPin {
	return []runPin{
		{digest: 0x7d5fd9cff57c5e6a}, {digest: 0x981e5cc97d3040b0}, {digest: 0xd851f52173c0848a},
		{digest: 0x4b207cd03c67ea14}, {digest: 0x2a0bf8e6ba3cb041}, {digest: 0xacc62e15614c9a7c},
		{digest: 0x104efcbdd46614b},
	}
}

// chaosWorkload is the only workload running checkpoints, the
// watchdog, fault injection and the recovery ladder: first-order chaos
// runs mostly write checkpoints, storm runs mostly read them back.
func chaosWorkload() workload {
	return workload{
		name:       "chaos_campaign",
		setupReps:  21,
		setupBatch: 100,
		setup: func(seed uint64, sp *spans) (instance, error) {
			return newCampaign(chaosSpecs(seed), seed == defaultSeed, chaosPins()), nil
		},
	}
}

// chaosSpecs is the first half of `make fleet` (the `qcdoc chaos`
// defaults on a 2x2 machine, eight fault seeds on two lattices) plus
// the -storm preset on a 2x2x2 machine. The workload seed moves the
// gauge configuration; the fault seeds are part of the workload.
func chaosSpecs(seed uint64) []fleet.Spec {
	base := fleet.Spec{
		Machine:         geom.MakeShape(2, 2),
		Op:              fermion.WilsonKind,
		Mass:            0.5,
		Seed:            4000 + seed,
		Tol:             1e-8,
		MaxIter:         400,
		CheckpointEvery: 10,
		Chaos:           true,
		Faults: faultplan.Spec{
			From:        2 * event.Millisecond,
			To:          10 * event.Millisecond,
			NodeCrashes: 1,
			NetDrops:    2,
			NetDups:     1,
			LinkBursts:  1,
		},
	}
	specs := fleet.Sweep(base, []lattice.Shape4{{4, 4, 4, 4}, {8, 4, 4, 4}}, nil,
		[]uint64{3, 5, 7, 9, 11, 13, 16, 17})
	storm := base
	storm.Machine = geom.MakeShape(2, 2, 2)
	storm.MaxAttempts = 6
	storm.Faults.ChunkCorrupts += 2
	storm.Faults.ChunkTorns++
	storm.Faults.WatchdogFalsePositives++
	storm.Faults.RecoveryCrashes++
	return append(specs, fleet.Sweep(storm, []lattice.Shape4{{4, 4, 4, 4}}, nil, []uint64{1, 16, 19, 23})...)
}

func chaosPins() []runPin {
	return []runPin{
		{digest: 0xb491dc97a4b44f9d}, {digest: 0xdcd2ee38739df981}, {digest: 0x9b92e1fb46049234},
		{digest: 0xd0315573ab09e7a3}, {digest: 0x4851c82fb8c46a56}, {digest: 0x92a230be6fe64692},
		{digest: 0x3b404fa35e917750}, {digest: 0xf1452b4a9220e694},
		{digest: 0x191f7d7f2c1e083a}, {digest: 0x60d3e0d22744e879}, {digest: 0xaf604aeb908a46f8},
		{digest: 0xdaa248534bccd0e3}, {digest: 0xe87a37dd0c7533e2}, {digest: 0xb409e365cc7dd099},
		{digest: 0x1fdb2fc2274fe30f}, {digest: 0x27907ee8121ce97c},
		{digest: 0xdc80a5c048e80e14}, {digest: 0xa5b1caaf934caf0d, unrecoverable: true},
		{digest: 0x570655df31486479}, {digest: 0x9531aa4827964dff, unrecoverable: true},
	}
}

// campaign is a fleet campaign instance: its specs and the pool every
// job shares.
type campaign struct {
	specs []fleet.Spec
	pool  *machine.Pool
	pins  []runPin // non-nil at the default seed
	first []fleet.Result
	last  []fleet.Result

	tracedRuns            [][]fleet.Result
	storageUsed, ringUsed []float64
}

func newCampaign(specs []fleet.Spec, pinned bool, pins []runPin) *campaign {
	c := &campaign{specs: specs, pool: machine.NewPool()}
	if pinned {
		c.pins = pins
	}
	return c
}

func (c *campaign) job(sp *spans) error {
	cfg := fleet.Config{Workers: campaignWorkers, Pool: c.pool, Observe: sp != nil}
	st0 := c.pool.Stats()
	id := sp.begin("fleet.Run")
	rs := fleet.Run(cfg, c.specs)
	sp.end(id)
	c.last = rs
	if sp != nil {
		st := c.pool.Stats()
		c.tracedRuns = append(c.tracedRuns, rs)
		c.storageUsed = append(c.storageUsed, float64(st.StorageReused-st0.StorageReused))
		c.ringUsed = append(c.ringUsed, float64(st.RingsReused-st0.RingsReused))
	}
	return c.check(rs)
}

// check applies the output rule to every run. At the default seed each
// digest must equal its pin, and exactly the pinned runs end in
// ErrCheckpointUnrecoverable. At other seeds a run passes on
// convergence, or — storm runs only — on a typed ladder-exhaustion
// error, and every digest must equal the run's first job's.
func (c *campaign) check(rs []fleet.Result) error {
	if len(rs) != len(c.specs) {
		return fmt.Errorf("campaign returned %d results for %d specs", len(rs), len(c.specs))
	}
	if c.pins != nil && len(c.pins) != len(rs) {
		return fmt.Errorf("%d pins for %d runs", len(c.pins), len(rs))
	}
	for i, r := range rs {
		laddered := errors.Is(r.Err, core.ErrCheckpointUnrecoverable) || errors.Is(r.Err, core.ErrPartitionExhausted)
		switch {
		case c.pins != nil:
			p := c.pins[i]
			if p.unrecoverable != errors.Is(r.Err, core.ErrCheckpointUnrecoverable) ||
				(!p.unrecoverable && (r.Err != nil || !r.Converged)) {
				return fmt.Errorf("run %d %q: converged=%v err=%v, want unrecoverable=%v",
					i, r.Name, r.Converged, r.Err, p.unrecoverable)
			}
			if r.Digest != p.digest {
				return fmt.Errorf("run %d %q: digest %#x, pinned %#x", i, r.Name, r.Digest, p.digest)
			}
		case r.Err != nil && !(laddered && c.specs[i].MaxAttempts > 0):
			return fmt.Errorf("run %d %q: %w", i, r.Name, r.Err)
		case r.Err == nil && !r.Converged:
			return fmt.Errorf("run %d %q did not converge", i, r.Name)
		}
	}
	if c.pins != nil {
		return nil
	}
	if c.first == nil {
		c.first = rs
		return nil
	}
	for i, r := range rs {
		if r.Digest != c.first[i].Digest || (r.Err == nil) != (c.first[i].Err == nil) {
			return fmt.Errorf("run %d %q: digest %#x (err %v), first job %#x (err %v)",
				i, r.Name, r.Digest, r.Err, c.first[i].Digest, c.first[i].Err)
		}
	}
	return nil
}

func (c *campaign) sim() map[string]any {
	runs := make([]map[string]any, len(c.last))
	for i, r := range c.last {
		run := map[string]any{
			"name":       r.Name,
			"machine":    c.specs[i].Machine.String(),
			"iterations": r.Iterations,
			"attempts":   r.Attempts,
			"sim_us":     r.SimTime.Seconds() * 1e6,
			"digest":     fmt.Sprintf("%#x", r.Digest),
		}
		if r.Err != nil {
			run["error"] = r.Err.Error()
		}
		runs[i] = run
	}
	return map[string]any{
		"campaign_digest": fmt.Sprintf("%#x", fleet.Digest(c.last)),
		"workers":         campaignWorkers,
		"runs":            runs,
	}
}

// layers re-runs every spec alone, serially, to attribute host time to
// runs and layers, and reads the traced campaigns' pool and histogram
// sidecars.
func (c *campaign) layers(lr *layerRun) error {
	m := lr.m
	m.set("machine.pool_storage_reused", median(c.storageUsed))
	m.set("machine.pool_rings_reused", median(c.ringUsed))
	m.set("memsys.first_touch_mb", firstTouchMB(lr.jobs))
	wall := median(lr.walls(false))
	m.set("fleet.runs_per_s", float64(len(c.specs))/wall)

	var solo []float64
	var err error
	if c.specs[0].Chaos {
		solo, err = c.chaosLayers(lr)
	} else {
		solo, err = c.solveLayers(lr)
	}
	if err != nil {
		return err
	}
	sum, longest := 0.0, 0.0
	for _, s := range solo {
		sum += s
		longest = max(longest, s)
	}
	m.set("fleet.parallel_eff", sum/(campaignWorkers*wall))
	m.set("fleet.critical_path_frac", longest/wall)
	return nil
}

// soloCounts are a solo rerun's counters and its solve's host seconds.
type soloCounts struct {
	layerCounts
	solveS float64
}

// solveLayers re-runs each solve spec alone through core on a fresh
// serial machine, which exposes the counters fleet.Result does not
// carry, and checks the rerun reproduces the campaign's run.
func (c *campaign) solveLayers(lr *layerRun) ([]float64, error) {
	m := lr.m
	var total soloCounts
	perOp := map[string]*soloCounts{}
	firstSpec := map[string]fleet.Spec{}
	iters, apps := map[string]float64{}, map[string]float64{}
	var solo []float64
	for i, s := range c.specs {
		lr.sp.setJob(fmt.Sprintf("solo%d", i))
		start := wallNow()
		met, crc, sc, err := soloSolve(s, lr.sp)
		solo = append(solo, secondsSince(start))
		if err != nil {
			return nil, fmt.Errorf("solo %q: %w", s.Name, err)
		}
		want := c.last[i]
		if met.Iterations != want.Iterations || met.RelResidual != want.RelResidual || met.SimTime != want.SimTime ||
			(want.SolutionCRC != 0 && crc != want.SolutionCRC) {
			return nil, fmt.Errorf("solo %q: %d iter, sim %v, crc %#x; campaign %d iter, sim %v, crc %#x",
				s.Name, met.Iterations, met.SimTime, crc, want.Iterations, want.SimTime, want.SolutionCRC)
		}
		op := s.Op.String()
		if perOp[op] == nil {
			perOp[op] = &soloCounts{}
			firstSpec[op] = s
		}
		for _, acc := range []*soloCounts{&total, perOp[op]} {
			acc.add(sc.layerCounts)
			acc.solveS += sc.solveS
		}
		iters[op] += float64(met.Iterations)
		apps[op] += float64(met.Applications)
	}
	m.set("event.events", total.events)
	m.set("event.events_per_word", total.events/total.words)
	m.set("event.host_ns_per_event", 1e9*total.solveS/total.events)
	m.set("event.peak_pending", float64(total.peakPending))
	m.set("scu.words_sent", total.words)
	m.set("scu.resends", total.resends)
	m.set("hssl.frames", total.frames)
	m.set("hssl.corrupted", total.corrupted)
	setMachineSpans(m, lr.sp)
	local := localShape(c.specs[0])
	for _, op := range opNames() {
		s, ok := firstSpec[op]
		if !ok {
			continue
		}
		m.set("solver.iterations."+op, iters[op])
		m.set("solver.applications."+op, apps[op])
		m.set("core.solve_s."+op, perOp[op].solveS)
		m.set("core.halo_words_per_iter."+op, perOp[op].words/iters[op])
		m.set("latmath.flops_per_byte."+op, flopsPerByte(s.Op, s.Ls))
		mf, err := refMflops(s.Op, local, s.Ls, s.Mass, lr.seed, lr.sp)
		if err != nil {
			return nil, err
		}
		m.set("fermion.host_mflops."+op, mf)
	}
	return solo, nil
}

// localShape is the per-node lattice of a spec's first lattice.
func localShape(s fleet.Spec) lattice.Shape4 {
	lay, err := core.NewLayout(s.Machine, s.Global)
	if err != nil {
		return s.Global
	}
	return lay.Dec.Local
}

// soloSolve runs one solve spec the way fleet runs it (same fields from
// the same seeds), on a fresh serial machine with the event tracer on.
func soloSolve(s fleet.Spec, sp *spans) (core.SolveMetrics, uint32, soloCounts, error) {
	var sc soloCounts
	sess, err := bootSession(machine.DefaultConfig(s.Machine), s.Global, sp)
	if err != nil {
		return core.SolveMetrics{}, 0, sc, err
	}
	defer sess.Close()
	eng, m := sess.Eng, sess.M
	gauge := lattice.NewGaugeField(s.Global)
	gauge.Randomize(s.Seed)
	peak := 0
	eng.SetTracer(func(event.Time) {
		if p := eng.Pending(); p > peak {
			peak = p
		}
	})
	// Build the inputs as fleet does, then time only the Solve call.
	var met core.SolveMetrics
	var x *lattice.FermionField
	var solve func() error
	switch s.Op {
	case fermion.CloverKind:
		b := lattice.NewFermionField(s.Global)
		b.Gaussian(s.Seed + 1)
		op := fermion.NewClover(gauge, s.Mass, 1.0)
		solve = func() (err error) {
			x, met, err = sess.SolveClover(op, b, fermion.Double, s.Tol, s.MaxIter)
			return err
		}
	case fermion.AsqtadKind:
		b := lattice.NewColorField(s.Global)
		b.Gaussian(s.Seed + 1)
		op := fermion.NewASQTAD(gauge, s.Mass)
		solve = func() (err error) {
			_, met, err = sess.SolveASQTAD(op, b, fermion.Double, s.Tol, s.MaxIter)
			return err
		}
	case fermion.DWFKind:
		b := fermion.NewField5(s.Global, s.Ls)
		b.Gaussian(s.Seed + 1)
		solve = func() (err error) {
			_, met, err = sess.SolveDWF(gauge, b, 1.8, s.Mass, s.Ls, fermion.Double, s.Tol, s.MaxIter)
			return err
		}
	default:
		b := lattice.NewFermionField(s.Global)
		b.Gaussian(s.Seed + 1)
		solve = func() (err error) {
			x, met, err = sess.SolveWilson(gauge, b, s.Mass, fermion.Double, s.Tol, s.MaxIter)
			return err
		}
	}
	before := countersOf(eng.Executed(), m)
	id := sp.begin("core.Session.Solve." + s.Op.String())
	start := wallNow()
	err = solve()
	sc.solveS = secondsSince(start)
	sp.end(id)
	eng.SetTracer(nil)
	sc.layerCounts = countersOf(eng.Executed(), m).since(before)
	sc.peakPending = peak
	var crc uint32
	if x != nil {
		crc = checkpoint.FermionCRC(x)
	}
	return met, crc, sc, err
}

// chaosLayers re-runs each chaos spec alone through core.RunChaosWilson
// with telemetry on, for the recovery ladder's rungs, and checks each
// rerun's digest against the campaign's. The event engine and SCU
// counters of chaos attempts are not reachable through the public API,
// so those layers read 0 here.
func (c *campaign) chaosLayers(lr *layerRun) ([]float64, error) {
	m := lr.m
	var solo []float64
	rungs := map[string]float64{}
	attempts, iters := 0.0, 0.0
	for i, s := range c.specs {
		lr.sp.setJob(fmt.Sprintf("solo%d", i))
		start := wallNow()
		id := lr.sp.begin("core.RunChaosWilson")
		out, err := core.RunChaosWilson(core.ChaosConfig{
			Shape: s.Machine, Global: s.Global, Seed: s.Seed, FaultSeed: s.FaultSeed,
			Mass: s.Mass, Tol: s.Tol, MaxIter: s.MaxIter, CheckpointEvery: s.CheckpointEvery,
			MaxAttempts: s.MaxAttempts, Spec: s.Faults, Shards: s.Shards, Workers: s.Workers,
			Pool: c.pool, Telemetry: true,
		})
		lr.sp.end(id)
		solo = append(solo, secondsSince(start))
		if out == nil || out.Digest != c.last[i].Digest || (err == nil) != (c.last[i].Err == nil) {
			return nil, fmt.Errorf("solo %q did not reproduce the campaign run (err %v)", s.Name, err)
		}
		attempts += float64(len(out.Attempts))
		iters += float64(c.last[i].Iterations)
		for _, r := range out.Rungs {
			rungs[r.Kind.String()]++
		}
	}
	m.set("recovery.attempts", attempts)
	for _, k := range rungNames() {
		m.set("recovery.rungs."+k, rungs[strings.ReplaceAll(k, "_", "-")])
	}
	m.set("solver.iterations.wilson", iters)
	if h, ok := fleet.Aggregate(c.tracedRuns[len(c.tracedRuns)-1])["qdaemon/watchdog_detect_ps"]; ok {
		m.set("qdaemon.detect_sim_us_p50", float64(h.P50)/float64(event.Microsecond))
	}

	// Machines are built inside each attempt; time Build and Boot of
	// each campaign shape standalone.
	for i, shape := range []geom.Shape{geom.MakeShape(2, 2), geom.MakeShape(2, 2, 2)} {
		for rep := 0; rep < 3; rep++ {
			lr.sp.setJob(fmt.Sprintf("build%d-%d", i, rep))
			sess, err := bootSession(machine.DefaultConfig(shape), lattice.Shape4{4, 4, 4, 4}, lr.sp)
			if err != nil {
				return nil, err
			}
			sess.Close()
		}
	}
	setMachineSpans(m, lr.sp)
	lr.sp.setJob("codec")
	if err := setCodecRates(m, localShape(c.specs[len(c.specs)-1]), 3, 8, lr.seed, lr.sp); err != nil {
		return nil, err
	}
	m.set("latmath.flops_per_byte.wilson", flopsPerByte(fermion.WilsonKind, 0))
	mf, err := refMflops(fermion.WilsonKind, localShape(c.specs[0]), 0, c.specs[0].Mass, lr.seed, lr.sp)
	m.set("fermion.host_mflops.wilson", mf)
	return solo, err
}

func (c *campaign) close() {}
