package core

import (
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
	"qcdoc/internal/solver"
)

// distField is a node-local field a distributed solve runs over: a
// spinor, staggered color or 5-D domain-wall field.
type distField[F any] interface {
	comparable
	Copy(x F)
	Dot(g F) complex128
	Norm2() float64
	AXPY(a complex128, x F)
	Scale(a complex128)
}

// distSpace is the solver vector space for distributed fields: local
// BLAS plus machine-wide reductions through the SCU global-sum hardware,
// each charged to the CPU model. The working set is sized on the 4-D
// local volume; the per-site charges then scale with the
// fifth-dimension slices.
func distSpace[F distField[F]](ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, kind fermion.OpKind, prec fermion.Precision,
	slices int, newField func(lattice.Shape4) F) solver.Space[F] {
	level := fermion.WorkingSetLevel(kind, prec, dec.LocalVolume())
	sites := float64(dec.LocalVolume())
	axpyCharge := fermion.AXPYCost(kind, prec, level).Scale(sites).Scale(float64(slices))
	dotCharge := fermion.DotCost(kind, prec, level).Scale(sites).Scale(float64(slices))
	globalSum := func(x float64) float64 {
		ctx.N.Compute(ctx.P, dotCharge)
		return comm.GlobalSumFloat64(ctx.P, x)
	}
	// iterAt is the simulated time of the previous iteration hook, so
	// OnIteration can histogram per-iteration sim time.
	var iterAt event.Time
	return solver.Space[F]{
		New:  func() F { return newField(dec.Local) },
		Copy: func(dst, src F) { dst.Copy(src) },
		Dot: func(a, b F) complex128 {
			local := a.Dot(b)
			re := globalSum(real(local))
			im := globalSum(imag(local))
			return complex(re, im)
		},
		Norm2: func(a F) float64 { return globalSum(a.Norm2()) },
		AXPY: func(y F, a complex128, x F) {
			ctx.N.Compute(ctx.P, axpyCharge)
			y.AXPY(a, x)
		},
		Scale: func(x F, a complex128) {
			ctx.N.Compute(ctx.P, axpyCharge)
			x.Scale(a)
		},
		// The solver's per-iteration hook feeds the node's telemetry
		// counters (no-op with telemetry disabled): the iteration count,
		// and the simulated time since the previous iteration into the
		// CG-iteration histogram.
		OnIteration: func() {
			ctr := ctx.N.Counters()
			if ctr == nil {
				return
			}
			ctr.SolverIterations++
			now := ctx.P.Now()
			if iterAt != 0 {
				ctr.IterTime.Record(uint64(now - iterAt))
			}
			iterAt = now
		},
	}
}

// distSolve is one operator's distributed solve as the shared driver
// sees it: the field type's constructor and scatter/gather, and how a
// rank builds its operator.
type distSolve[F distField[F]] struct {
	prog     string // RunSPMD program name
	kind     fermion.OpKind
	slices   int // fifth-dimension slices: Ls for domain-wall, else 1
	newField func(lattice.Shape4) F
	scatter  func(global F, dec lattice.Decomp, gc lattice.Site) F
	gather   func(global F, dec lattice.Decomp, gc lattice.Site, local F)
	op       rankOp[F]
}

// rankOp builds a rank's operator, D and D†, on its node.
type rankOp[F any] func(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, gc lattice.Site) (apply, applyDag solver.Op[F])

// solveRank is the per-rank body of every distributed solve: build this
// node's operator and the machine-wide Space, solve D x = b by CGNE —
// from x0's local part, or from zero when x0 is nil — saving through ck,
// and gather x into solution.
func (ds *distSolve[F]) solveRank(ctx *node.Ctx, lay Layout, prec fermion.Precision, b, x0, solution F,
	tol float64, maxIter int, ck solver.Checkpoint[F]) (solver.Result, error) {
	dec := lay.Dec
	comm := qmp.New(ctx, lay.Fold)
	gc := GridCoord(comm.Coord())
	apply, applyDag := ds.op(ctx, comm, dec, gc)
	sp := distSpace(ctx, comm, dec, ds.kind, prec, ds.slices, ds.newField)
	var x, none F
	if x0 == none {
		x = ds.newField(dec.Local)
	} else {
		x = ds.scatter(x0, dec, gc)
	}
	res, err := solver.CGNECheckpointed(sp, apply, applyDag, x, ds.scatter(b, dec, gc), tol, maxIter, ck)
	ds.gather(solution, dec, gc, x)
	return res, err
}

// solve runs a distributed CGNE solve of D x = b on the session's
// machine, with every halo exchange and global sum travelling the
// simulated network and every kernel charged to the CPU model: each rank
// runs solveRank, rank 0 reports the solver counts, and the link
// checksums are audited afterwards. It returns the gathered global
// solution and timing metrics.
func solve[F distField[F]](s *Session, ds *distSolve[F], b F, prec fermion.Precision, tol float64, maxIter int) (F, SolveMetrics, error) {
	var none F
	solution := ds.newField(s.Lay.Dec.Global)
	var met SolveMetrics
	// Per-rank error slots: rank programs may execute on different shard
	// engines concurrently, so each writes only its own element.
	errs := make([]error, s.M.NumNodes())
	start := s.Eng.Now()
	runErr := s.M.RunSPMD(ds.prog, func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			res, err := ds.solveRank(ctx, s.Lay, prec, b, none, solution, tol, maxIter, solver.Checkpoint[F]{})
			errs[rank] = err
			if rank == 0 {
				met.Iterations = res.Iterations
				met.Applications = res.Applications
				met.RelResidual = res.RelResidual
			}
		}
	})
	if runErr != nil {
		return none, met, runErr
	}
	if err := firstOf(errs); err != nil {
		return solution, met, err
	}
	met.SimTime = s.Eng.Now() - start
	s.fillMetrics(&met, ds.kind, ds.slices)
	if _, err := s.M.VerifyChecksums(); err != nil {
		return solution, met, err
	}
	return solution, met, nil
}

// spinorSolve describes a distributed solve over 4-D spinor fields.
func spinorSolve(prog string, kind fermion.OpKind, op rankOp[*lattice.FermionField]) *distSolve[*lattice.FermionField] {
	return &distSolve[*lattice.FermionField]{
		prog: prog, kind: kind, slices: 1,
		newField: lattice.NewFermionField,
		scatter:  ScatterFermion,
		gather:   GatherFermion,
		op:       op,
	}
}

// wilsonSolve describes the distributed Wilson solve on gauge.
func wilsonSolve(prog string, gauge *lattice.GaugeField, mass float64, prec fermion.Precision) *distSolve[*lattice.FermionField] {
	return spinorSolve(prog, fermion.WilsonKind, func(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, gc lattice.Site) (solver.Op[*lattice.FermionField], solver.Op[*lattice.FermionField]) {
		dw := NewDistWilson(ctx, comm, dec, ScatterGauge(gauge, dec, gc), mass, prec)
		return dw.Apply, dw.ApplyDag
	})
}

// SolveWilson runs a distributed CGNE Wilson solve of D x = b on the
// machine (see solve).
func (s *Session) SolveWilson(gauge *lattice.GaugeField, b *lattice.FermionField, mass float64, prec fermion.Precision, tol float64, maxIter int) (*lattice.FermionField, SolveMetrics, error) {
	if gauge.L != s.Lay.Dec.Global || b.L != s.Lay.Dec.Global {
		return nil, SolveMetrics{}, fmt.Errorf("core: field shape %v does not match layout %v", gauge.L, s.Lay.Dec.Global)
	}
	return solve(s, wilsonSolve("wilson-cg", gauge, mass, prec), b, prec, tol, maxIter)
}

// SolveClover runs a distributed CGNE solve of the clover-improved
// operator. ref is the clover operator built on the global gauge field
// (the clover term is a per-configuration precomputation).
func (s *Session) SolveClover(ref *fermion.Clover, b *lattice.FermionField, prec fermion.Precision, tol float64, maxIter int) (*lattice.FermionField, SolveMetrics, error) {
	if ref.G.L != s.Lay.Dec.Global || b.L != s.Lay.Dec.Global {
		return nil, SolveMetrics{}, fmt.Errorf("core: field shape mismatch")
	}
	return solve(s, spinorSolve("clover-cg", fermion.CloverKind, func(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, gc lattice.Site) (solver.Op[*lattice.FermionField], solver.Op[*lattice.FermionField]) {
		dc := NewDistClover(ctx, comm, dec, ScatterGauge(ref.G, dec, gc), ref, prec)
		return dc.Apply, dc.ApplyDag
	}), b, prec, tol, maxIter)
}

// SolveASQTAD runs a distributed CGNE solve of the ASQTAD staggered
// operator. ref carries the globally precomputed fat and long links.
func (s *Session) SolveASQTAD(ref *fermion.ASQTAD, b *lattice.ColorField, prec fermion.Precision, tol float64, maxIter int) (*lattice.ColorField, SolveMetrics, error) {
	if ref.G.L != s.Lay.Dec.Global || b.L != s.Lay.Dec.Global {
		return nil, SolveMetrics{}, fmt.Errorf("core: field shape mismatch")
	}
	return solve(s, &distSolve[*lattice.ColorField]{
		prog: "asqtad-cg", kind: fermion.AsqtadKind, slices: 1,
		newField: lattice.NewColorField,
		scatter:  ScatterColor,
		gather:   GatherColor,
		op: func(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, _ lattice.Site) (solver.Op[*lattice.ColorField], solver.Op[*lattice.ColorField]) {
			da := NewDistASQTAD(ctx, comm, dec, ref, prec)
			return da.Apply, da.ApplyDag
		},
	}, b, prec, tol, maxIter)
}

// SolveDWF runs a distributed CGNE solve of the domain-wall operator.
func (s *Session) SolveDWF(gauge *lattice.GaugeField, b *fermion.Field5, m5, mf float64, ls int, prec fermion.Precision, tol float64, maxIter int) (*fermion.Field5, SolveMetrics, error) {
	if gauge.L != s.Lay.Dec.Global || b.L != s.Lay.Dec.Global || b.Ls != ls {
		return nil, SolveMetrics{}, fmt.Errorf("core: field shape mismatch")
	}
	return solve(s, &distSolve[*fermion.Field5]{
		prog: "dwf-cg", kind: fermion.DWFKind, slices: ls,
		newField: func(l lattice.Shape4) *fermion.Field5 { return fermion.NewField5(l, ls) },
		scatter:  scatterField5,
		gather:   gatherField5,
		op: func(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, gc lattice.Site) (solver.Op[*fermion.Field5], solver.Op[*fermion.Field5]) {
			dd := NewDistDWF(ctx, comm, dec, ScatterGauge(gauge, dec, gc), m5, mf, ls, prec)
			return dd.Apply, dd.ApplyDag
		},
	}, b, prec, tol, maxIter)
}
