package core

import (
	"fmt"

	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/node"
	"qcdoc/internal/ppc440"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scu"
)

// haloExchanger ships the boundary layers of one node's sub-volume to its
// torus neighbours through the SCU — the one halo-exchange path of every
// distributed operator. Three numbers set it up: the face depth (1 for
// Wilson and clover, 3 for ASQTAD's Naik term), the fifth-dimension
// slices (1, or Ls for domain-wall fields) and the element words
// (latmath.HalfSpinorWords or latmath.Vec3Words). The operator supplies
// only the element each slot carries.
//
// Slot (s, k, i) — slice s, layer k, face position i — sits at word
// ((s*depth+k)*faceVolume + i)*words of each buffer, the packing order
// sender and receiver share.
type haloExchanger[E any] struct {
	ctx    *node.Ctx
	comm   *qmp.Comm
	grid   lattice.Shape4
	depth  int
	slices int
	pack   func(E, []uint64)
	unpack func([]uint64) E
	// charge is the operator's volume kernel, run while the DMA engines
	// move the faces.
	charge ppc440.KernelCost

	// layers[mu][end][k] lists, ascending, the local sites of layer k of
	// the low (end 0) or high (end 1) boundary along mu: x_mu = k, or
	// x_mu = L-depth+k.
	layers [lattice.Ndim][2][][]int
	// send/recv[mu][end] are the node-memory buffers: end 0 is sent
	// toward -mu and filled from -mu, end 1 likewise toward and from +mu.
	send, recv [lattice.Ndim][2]uint64
	// ghost[mu][end] is recv[mu][end] unpacked, by slot.
	ghost [lattice.Ndim][2][]E

	buf       []uint64
	transfers [4 * lattice.Ndim]*scu.Transfer
}

// newHaloExchanger allocates the exchanger's node-memory buffers for
// every distributed direction, once, at operator construction.
func newHaloExchanger[E any](ctx *node.Ctx, comm *qmp.Comm, dec lattice.Decomp, depth, slices, words int,
	pack func(E, []uint64), unpack func([]uint64) E, charge ppc440.KernelCost) *haloExchanger[E] {
	h := &haloExchanger[E]{
		ctx: ctx, comm: comm, grid: dec.Grid,
		depth: depth, slices: slices,
		pack: pack, unpack: unpack, charge: charge,
		buf: make([]uint64, words),
	}
	l := dec.Local
	for mu := 0; mu < lattice.Ndim; mu++ {
		if dec.Grid[mu] == 1 {
			continue
		}
		if l[mu] < depth {
			panic(fmt.Sprintf("core: halo depth %d needs local extent >= %d in distributed direction %d (have %d)", depth, depth, mu, l[mu]))
		}
		slots := slices * depth * lattice.FaceVolume(l, mu)
		for end := 0; end < 2; end++ {
			h.layers[mu][end] = make([][]int, depth)
			for k := 0; k < depth; k++ {
				h.layers[mu][end][k] = lattice.LayerSites(l, mu, k+end*(l[mu]-depth))
			}
			h.send[mu][end] = ctx.N.AllocWords(slots * words)
			h.recv[mu][end] = ctx.N.AllocWords(slots * words)
			h.ghost[mu][end] = make([]E, slots)
		}
	}
	return h
}

// ghostAt returns the ghost of slot (s, k, i) received from the -mu
// (end 0) or +mu (end 1) neighbour.
func (h *haloExchanger[E]) ghostAt(mu, end, s, k, i int) E {
	fv := len(h.layers[mu][end][0])
	return h.ghost[mu][end][(s*h.depth+k)*fv+i]
}

// exchange ships every distributed direction's boundary and returns with
// the ghosts unpacked; elem(mu, end, s, k, i) is the element of slot
// (s, k, i) of the low (end 0) or high (end 1) boundary. Per direction
// the SCU calls run in one fixed order — receive from +mu, receive from
// -mu, pack the low end and send it toward -mu, pack the high end and
// send it toward +mu. The CPU is then charged the operator's volume
// kernel while the DMA engines move the faces (overlapped, as on the
// real machine), and every transfer is awaited in the order it started.
// That order is part of the simulated schedule: changing it moves every
// digest.
func (h *haloExchanger[E]) exchange(elem func(mu, end, s, k, i int) E) {
	p := h.ctx.P
	n := 0
	for mu := 0; mu < lattice.Ndim; mu++ {
		if h.grid[mu] == 1 {
			continue
		}
		words := len(h.ghost[mu][0]) * len(h.buf)
		rtF, err := h.comm.StartRecv(mu, geom.Fwd, scu.Contiguous(h.recv[mu][1], words))
		check(err)
		rtB, err := h.comm.StartRecv(mu, geom.Bwd, scu.Contiguous(h.recv[mu][0], words))
		check(err)
		h.packEnd(mu, 0, elem)
		stB, err := h.comm.StartSend(mu, geom.Bwd, scu.Contiguous(h.send[mu][0], words))
		check(err)
		h.packEnd(mu, 1, elem)
		stF, err := h.comm.StartSend(mu, geom.Fwd, scu.Contiguous(h.send[mu][1], words))
		check(err)
		h.transfers[n], h.transfers[n+1], h.transfers[n+2], h.transfers[n+3] = rtF, rtB, stB, stF
		n += 4
	}
	h.ctx.N.Compute(p, h.charge)
	qmp.WaitAll(p, h.transfers[:n]...)
	clear(h.transfers[:n])
	mem := h.ctx.N.Mem
	for mu := 0; mu < lattice.Ndim; mu++ {
		if h.grid[mu] == 1 {
			continue
		}
		for end := 0; end < 2; end++ {
			for slot := range h.ghost[mu][end] {
				base := h.recv[mu][end] + 8*uint64(slot*len(h.buf))
				for j := range h.buf {
					h.buf[j] = mem.ReadWord(base + 8*uint64(j))
				}
				h.ghost[mu][end][slot] = h.unpack(h.buf)
			}
		}
	}
}

// packEnd writes every slot of one boundary end into its send buffer.
func (h *haloExchanger[E]) packEnd(mu, end int, elem func(mu, end, s, k, i int) E) {
	mem := h.ctx.N.Mem
	fv := len(h.layers[mu][end][0])
	base := h.send[mu][end]
	for s := 0; s < h.slices; s++ {
		for k := 0; k < h.depth; k++ {
			for i := 0; i < fv; i++ {
				h.pack(elem(mu, end, s, k, i), h.buf)
				for _, w := range h.buf {
					mem.WriteWord(base, w)
					base += 8
				}
			}
		}
	}
}
