package core

import (
	"fmt"

	"qcdoc/internal/fermion"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/ppc440"
	"qcdoc/internal/qmp"
)

// wilsonHop is the distributed Wilson hopping term on Ls fifth-dimension
// slices (one for the 4-D operators): the part DistWilson, clover and
// DistDWF share. Boundary spin-projected half spinors travel through the
// SCU as in the hand-tuned production code: the low face is projected
// with (1-γ_mu) and sent backward (the receiver applies its own gauge
// link); the high face is projected with (1+γ_mu), multiplied by U†, and
// sent forward (the sender applies the link). Twelve complex numbers per
// face site per direction per slice — exactly the cost model's comm
// volume.
//
// While the real data moves, the node's CPU model is charged the
// operator's volume kernel cost, so simulated time reflects both compute
// and communication, overlapped as on the real machine (the DMA engines
// run while the CPU works the volume).
type wilsonHop struct {
	dec  lattice.Decomp
	G    *lattice.GaugeField
	halo *haloExchanger[latmath.HalfSpinor]
	ls   int
	// tmp and mid are applyDag's scratch fields.
	tmp, mid []latmath.Spinor
}

func newWilsonHop(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, localGauge *lattice.GaugeField, ls int, charge ppc440.KernelCost) wilsonHop {
	if localGauge.L != dec.Local {
		panic(fmt.Sprintf("core: local gauge %v does not match decomposition %v", localGauge.L, dec.Local))
	}
	n := ls * dec.LocalVolume()
	return wilsonHop{
		dec:  dec,
		G:    localGauge,
		halo: newHaloExchanger(ctx, comm, dec, 1, ls, latmath.HalfSpinorWords, latmath.PackHalfSpinor, latmath.UnpackHalfSpinor, charge),
		ls:   ls,
		tmp:  make([]latmath.Spinor, n),
		mid:  make([]latmath.Spinor, n),
	}
}

// exchange ships the projected faces of every slice of src.
func (w *wilsonHop) exchange(src []latmath.Spinor) {
	l := w.dec.Local
	v4 := l.Volume()
	w.halo.exchange(func(mu, end, s, _, i int) latmath.HalfSpinor {
		idx := w.halo.layers[mu][end][0][i]
		if end == 0 {
			return latmath.Project(mu, +1, src[s*v4+idx])
		}
		return latmath.Project(mu, -1, src[s*v4+idx]).DagMulMat(w.G.Link(l.SiteOf(idx), mu))
	})
}

// hop returns Σ_mu (1-γ_mu)U_mu(x)ψ(x+mu) + (1+γ_mu)U†_mu(x-mu)ψ(x-mu)
// at local site idx of slice s, reading off-node neighbours from the
// ghosts of the last exchange.
func (w *wilsonHop) hop(src []latmath.Spinor, s, idx int) latmath.Spinor {
	l := w.dec.Local
	v4 := l.Volume()
	x := l.SiteOf(idx)
	var acc latmath.Spinor
	for mu := 0; mu < lattice.Ndim; mu++ {
		distributed := w.dec.Grid[mu] > 1
		if distributed && x[mu] == l[mu]-1 {
			pos := facePos(w.halo.layers[mu][1][0], idx)
			h := w.halo.ghostAt(mu, 1, s, 0, pos).MulMat(w.G.Link(x, mu))
			acc = acc.Add(latmath.Reconstruct(mu, +1, h))
		} else {
			xp := l.Neighbor(x, mu, +1)
			h := latmath.Project(mu, +1, src[s*v4+l.Index(xp)]).MulMat(w.G.Link(x, mu))
			acc = acc.Add(latmath.Reconstruct(mu, +1, h))
		}
		if distributed && x[mu] == 0 {
			pos := facePos(w.halo.layers[mu][0][0], idx)
			acc = acc.Add(latmath.Reconstruct(mu, -1, w.halo.ghostAt(mu, 0, s, 0, pos))) // link applied by sender
		} else {
			xm := l.Neighbor(x, mu, -1)
			h := latmath.Project(mu, -1, src[s*v4+l.Index(xm)]).DagMulMat(w.G.Link(xm, mu))
			acc = acc.Add(latmath.Reconstruct(mu, -1, h))
		}
	}
	return acc
}

// applyDag computes dst = D† src = Γ D Γ src, where apply is D and Γ is
// γ5 composed with the fifth-dimension reflection s → Ls-1-s (plain γ5
// for the 4-D operators): Wilson, clover and domain-wall are all
// Γ-Hermitian.
func (w *wilsonHop) applyDag(dst, src []latmath.Spinor, apply func(dst, src []latmath.Spinor)) {
	w.reflectGamma5(w.tmp, src)
	apply(w.mid, w.tmp)
	w.reflectGamma5(dst, w.mid)
}

func (w *wilsonHop) reflectGamma5(dst, src []latmath.Spinor) {
	v4 := w.dec.LocalVolume()
	for s := 0; s < w.ls; s++ {
		rs := w.ls - 1 - s
		for idx := 0; idx < v4; idx++ {
			dst[s*v4+idx] = latmath.Gamma5.ApplySpin(src[rs*v4+idx])
		}
	}
}

// facePos returns the position of local face site idx in the packing
// order, or -1. faces lists are ascending, so binary search.
func facePos(faces []int, idx int) int {
	lo, hi := 0, len(faces)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case faces[mid] == idx:
			return mid
		case faces[mid] < idx:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return -1
}

// DistWilson is the distributed Wilson Dirac operator running on one
// node of the machine; with a clover term (NewDistClover) it is the
// clover-improved operator.
type DistWilson struct {
	wilsonHop
	Mass float64
	// clover is the site-local clover term, nil for plain Wilson.
	clover [][4][4]latmath.Mat3
}

// NewDistWilson builds the operator on one node. localGauge is the
// node's sub-volume of the configuration (normally produced by
// ScatterGauge).
func NewDistWilson(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, localGauge *lattice.GaugeField, mass float64, prec fermion.Precision) *DistWilson {
	return newDistWilson(ctx, comm, dec, localGauge, mass, fermion.WilsonKind, prec)
}

func newDistWilson(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, localGauge *lattice.GaugeField, mass float64, kind fermion.OpKind, prec fermion.Precision) *DistWilson {
	level := fermion.WorkingSetLevel(kind, prec, dec.LocalVolume())
	charge := fermion.SiteCost(kind, prec, level).Scale(float64(dec.LocalVolume()))
	return &DistWilson{wilsonHop: newWilsonHop(ctx, comm, dec, localGauge, 1, charge), Mass: mass}
}

// NewDistClover builds the clover-improved operator on one node: the
// Wilson hopping term with halo exchange plus the site-local clover
// term. ref must be the clover operator constructed on the global gauge
// field; its term is precomputed there (as production codes do once per
// configuration) and scattered here, so the per-iteration work — the
// benchmarked part — runs entirely on-machine.
func NewDistClover(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, localGauge *lattice.GaugeField, ref *fermion.Clover, prec fermion.Precision) *DistWilson {
	d := newDistWilson(ctx, comm, dec, localGauge, ref.Mass, fermion.CloverKind, prec)
	gc := GridCoord(comm.Coord())
	d.clover = make([][4][4]latmath.Mat3, dec.LocalVolume())
	for idx := range d.clover {
		gs := dec.GlobalOf(gc, dec.Local.SiteOf(idx))
		d.clover[idx] = ref.TermAt(ref.G.L.Index(gs))
	}
	return d
}

// Apply computes dst = D src with halo exchange over the machine.
func (d *DistWilson) Apply(dst, src *lattice.FermionField) { d.apply(dst.S, src.S) }

// ApplyDag computes dst = D† src = γ5 D γ5 src.
func (d *DistWilson) ApplyDag(dst, src *lattice.FermionField) { d.applyDag(dst.S, src.S, d.apply) }

func (d *DistWilson) apply(dst, src []latmath.Spinor) {
	d.exchange(src)
	diag := complex(d.Mass+4, 0)
	for idx := range dst {
		out := src[idx].Scale(diag).Sub(d.hop(src, 0, idx).Scale(0.5))
		if d.clover != nil {
			var extra latmath.Spinor
			for a := 0; a < 4; a++ {
				for b := 0; b < 4; b++ {
					m := &d.clover[idx][a][b]
					if *m == latmath.Zero3() {
						continue
					}
					extra[a] = extra[a].Add(m.MulVec(src[idx][b]))
				}
			}
			out = out.Add(extra)
		}
		dst[idx] = out
	}
}

// DistDWF is the distributed domain-wall operator: the Wilson hopping
// term with its halo exchange on each of the Ls fifth-dimension slices
// (the fifth dimension stays node-local — QCDOC could also map it onto
// a machine axis; see DESIGN.md's future-work list), plus the
// slice-coupling terms. The gauge field is shared by all slices, which
// is the data reuse behind the DWF kernel's high efficiency (§4).
type DistDWF struct {
	wilsonHop
	M5 float64
	Mf float64
}

// NewDistDWF builds the operator on one node.
func NewDistDWF(ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, localGauge *lattice.GaugeField, m5, mf float64, ls int, prec fermion.Precision) *DistDWF {
	v4 := dec.LocalVolume()
	level := fermion.WorkingSetLevel(fermion.DWFKind, prec, v4*ls)
	charge := fermion.DWFSiteCost(prec, level, ls).Scale(float64(v4 * ls))
	return &DistDWF{wilsonHop: newWilsonHop(ctx, comm, dec, localGauge, ls, charge), M5: m5, Mf: mf}
}

// Apply computes dst = D src with halo exchange.
func (d *DistDWF) Apply(dst, src *fermion.Field5) { d.apply(dst.S, src.S) }

// ApplyDag computes dst = D† src = R γ5 D γ5 R src.
func (d *DistDWF) ApplyDag(dst, src *fermion.Field5) { d.applyDag(dst.S, src.S, d.apply) }

func (d *DistDWF) apply(dst, src []latmath.Spinor) {
	d.exchange(src)
	v4 := d.dec.LocalVolume()
	diag := complex(-d.M5+4+1, 0)
	mf := complex(d.Mf, 0)
	for s := 0; s < d.ls; s++ {
		for idx := 0; idx < v4; idx++ {
			out := src[s*v4+idx].Scale(diag).Sub(d.hop(src, s, idx).Scale(0.5))
			if up := s + 1; up < d.ls {
				out = out.Sub(projMinus5(src[up*v4+idx]))
			} else {
				out = out.AXPY(mf, projMinus5(src[idx]))
			}
			if dn := s - 1; dn >= 0 {
				out = out.Sub(projPlus5(src[dn*v4+idx]))
			} else {
				out = out.AXPY(mf, projPlus5(src[(d.ls-1)*v4+idx]))
			}
			dst[s*v4+idx] = out
		}
	}
}

func projPlus5(s latmath.Spinor) latmath.Spinor {
	g5 := latmath.Gamma5.ApplySpin(s)
	return s.Add(g5).Scale(0.5)
}

func projMinus5(s latmath.Spinor) latmath.Spinor {
	g5 := latmath.Gamma5.ApplySpin(s)
	return s.Sub(g5).Scale(0.5)
}

func check(err error) {
	if err != nil {
		panic("core: " + err.Error())
	}
}
