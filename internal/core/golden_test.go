package core

import (
	"hash/fnv"
	"testing"

	"qcdoc/internal/event"
	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/latmath"
	"qcdoc/internal/lattice"
)

// goldenSolve is what TestDistSolveGolden pins for one operator: the
// FNV-1a digest of the gathered solution's bits, the simulated solve
// time, the machine's SCU word count, the solver's iteration and
// operator-application counts, and the engine's executed-event count.
type goldenSolve struct {
	Solution     uint64
	SimTime      event.Time
	WordsSent    uint64
	Iterations   int
	Applications int
	Executed     uint64
}

// wordDigest folds a stream of 64-bit words into FNV-1a.
type wordDigest struct{ buf []byte }

func (d *wordDigest) add(words []uint64) {
	for _, v := range words {
		for i := 0; i < 8; i++ {
			d.buf = append(d.buf, byte(v>>(8*i)))
		}
	}
}

func (d *wordDigest) sum() uint64 {
	h := fnv.New64a()
	h.Write(d.buf)
	return h.Sum64()
}

func spinorDigest(s []latmath.Spinor) uint64 {
	var d wordDigest
	w := make([]uint64, latmath.SpinorWords)
	for i := range s {
		latmath.PackSpinor(s[i], w)
		d.add(w)
	}
	return d.sum()
}

func colorDigest(v []latmath.Vec3) uint64 {
	var d wordDigest
	w := make([]uint64, latmath.Vec3Words)
	for i := range v {
		latmath.PackVec3(v[i], w)
		d.add(w)
	}
	return d.sum()
}

// TestDistSolveGolden pins every observable of one distributed solve per
// operator as literal constants. The TestDist*MatchesReference checks
// compare against the single-node operators within a tolerance, so a
// floating-point reordering or a change in node-memory allocation order
// would pass them while moving every digest; this test does not let it.
func TestDistSolveGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("four distributed solves")
	}
	const ls = 4
	global := lattice.Shape4{4, 4, 4, 4}
	globalA := lattice.Shape4{8, 8, 4, 4} // the Naik term needs local extent >= 3
	cases := []struct {
		name string
		lat  lattice.Shape4
		run  func(t *testing.T, s *Session) (uint64, SolveMetrics)
		want goldenSolve
	}{
		{"wilson", global, func(t *testing.T, s *Session) (uint64, SolveMetrics) {
			gauge := lattice.NewGaugeField(global)
			gauge.Randomize(71)
			b := lattice.NewFermionField(global)
			b.Gaussian(72)
			x, met, err := s.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-8, 1000)
			if err != nil {
				t.Fatal(err)
			}
			return spinorDigest(x.S), met
		}, goldenSolve{Solution: 0x6905eca62de8ee3b, SimTime: 15758085472, WordsSent: 418592, Iterations: 32, Applications: 68, Executed: 2514692}},
		{"clover", global, func(t *testing.T, s *Session) (uint64, SolveMetrics) {
			gauge := lattice.NewGaugeField(global)
			gauge.Randomize(73)
			b := lattice.NewFermionField(global)
			b.Gaussian(74)
			x, met, err := s.SolveClover(fermion.NewClover(gauge, 0.5, 1.0), b, fermion.Double, 1e-8, 1000)
			if err != nil {
				t.Fatal(err)
			}
			return spinorDigest(x.S), met
		}, goldenSolve{Solution: 0xb6de2594803c5c49, SimTime: 20061855778, WordsSent: 443216, Iterations: 34, Applications: 72, Executed: 2662620}},
		{"asqtad", globalA, func(t *testing.T, s *Session) (uint64, SolveMetrics) {
			gauge := lattice.NewGaugeField(globalA)
			gauge.Randomize(75)
			b := lattice.NewColorField(globalA)
			b.Gaussian(76)
			x, met, err := s.SolveASQTAD(fermion.NewASQTAD(gauge, 0.5), b, fermion.Double, 1e-8, 2000)
			if err != nil {
				t.Fatal(err)
			}
			return colorDigest(x.V), met
		}, goldenSolve{Solution: 0xbe948db0b8d9b07f, SimTime: 49187918083, WordsSent: 1143512, Iterations: 29, Applications: 62, Executed: 6863936}},
		{"dwf", global, func(t *testing.T, s *Session) (uint64, SolveMetrics) {
			gauge := lattice.NewGaugeField(global)
			gauge.Randomize(77)
			b := fermion.NewField5(global, ls)
			b.Gaussian(78)
			x, met, err := s.SolveDWF(gauge, b, 1.8, 0.1, ls, fermion.Double, 1e-8, 3000)
			if err != nil {
				t.Fatal(err)
			}
			return spinorDigest(x.S), met
		}, goldenSolve{Solution: 0x5cad477fdf30fd28, SimTime: 247709700858, WordsSent: 7278032, Iterations: 146, Applications: 296, Executed: 43681820}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sess, err := NewSession(geom.MakeShape(2, 2), c.lat)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			sol, met := c.run(t, sess)
			got := goldenSolve{
				Solution:     sol,
				SimTime:      met.SimTime,
				WordsSent:    met.WordsSent,
				Iterations:   met.Iterations,
				Applications: met.Applications,
				Executed:     sess.Eng.Executed(),
			}
			if got != c.want {
				t.Fatalf("golden solve moved:\n got %#v\nwant %#v", got, c.want)
			}
		})
	}
}
