package core

import (
	"testing"

	"qcdoc/internal/fermion"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
	"qcdoc/internal/machine"
)

// shardedSolveDigest runs one solve on a sharded machine and fingerprints
// everything observable: solution bits, network word count, iteration
// count, and the simulated finish time.
func shardedSolveDigest(t *testing.T, workers int, shape geom.Shape, global lattice.Shape4,
	run func(*testing.T, *Session, lattice.Shape4) (uint64, SolveMetrics)) uint64 {
	t.Helper()
	cfg := machine.DefaultConfig(shape)
	cfg.Shards = machine.ShardAuto
	cfg.Workers = workers
	sess, err := NewSessionConfig(cfg, global)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.M.Cluster() == nil {
		t.Fatal("sharded config built an unsharded machine")
	}
	sol, met := run(t, sess, global)
	var d wordDigest
	d.add([]uint64{sol, met.WordsSent, uint64(met.Iterations), uint64(met.SimTime)})
	return d.sum()
}

// TestShardDeterminismDigests is the worker-count-invariance gate: the
// same seed must produce bit-identical outcomes at workers 1, 2, 4 and
// 8, for a clean distributed solve of every operator (E1/E10 for
// Wilson) and for a full chaos recovery run (E16) with the fault plan
// armed on the sharded engine.
// Workers choose OS threads, never physics.
func TestShardDeterminismDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-worker digest matrix")
	}
	workerCounts := []int{1, 2, 4, 8}

	// One small distributed solve per operator, returning the solution's
	// bit digest with the solver metrics. ASQTAD runs on a 2x2x2 machine
	// so every distributed direction keeps the local extent of 3 its
	// Naik term needs.
	solves := []struct {
		op     string
		shape  geom.Shape
		global lattice.Shape4
		run    func(t *testing.T, s *Session, global lattice.Shape4) (uint64, SolveMetrics)
	}{
		{"wilson", geom.MakeShape(2, 2, 2, 2), lattice.Shape4{4, 4, 2, 2}, func(t *testing.T, s *Session, global lattice.Shape4) (uint64, SolveMetrics) {
			gauge := lattice.NewGaugeField(global)
			gauge.Randomize(21)
			b := lattice.NewFermionField(global)
			b.Gaussian(22)
			x, met, err := s.SolveWilson(gauge, b, 0.5, fermion.Double, 1e-10, 1000)
			if err != nil {
				t.Fatal(err)
			}
			return spinorDigest(x.S), met
		}},
		{"clover", geom.MakeShape(2, 2, 2, 2), lattice.Shape4{4, 4, 2, 2}, func(t *testing.T, s *Session, global lattice.Shape4) (uint64, SolveMetrics) {
			gauge := lattice.NewGaugeField(global)
			gauge.Randomize(23)
			b := lattice.NewFermionField(global)
			b.Gaussian(24)
			x, met, err := s.SolveClover(fermion.NewClover(gauge, 0.5, 1.0), b, fermion.Double, 1e-10, 1000)
			if err != nil {
				t.Fatal(err)
			}
			return spinorDigest(x.S), met
		}},
		{"asqtad", geom.MakeShape(2, 2, 2), lattice.Shape4{6, 6, 6, 2}, func(t *testing.T, s *Session, global lattice.Shape4) (uint64, SolveMetrics) {
			gauge := lattice.NewGaugeField(global)
			gauge.Randomize(25)
			b := lattice.NewColorField(global)
			b.Gaussian(26)
			x, met, err := s.SolveASQTAD(fermion.NewASQTAD(gauge, 0.5), b, fermion.Double, 1e-10, 2000)
			if err != nil {
				t.Fatal(err)
			}
			return colorDigest(x.V), met
		}},
		{"dwf", geom.MakeShape(2, 2, 2, 2), lattice.Shape4{4, 4, 2, 2}, func(t *testing.T, s *Session, global lattice.Shape4) (uint64, SolveMetrics) {
			gauge := lattice.NewGaugeField(global)
			gauge.Randomize(27)
			b := fermion.NewField5(global, 4)
			b.Gaussian(28)
			x, met, err := s.SolveDWF(gauge, b, 1.8, 0.1, 4, fermion.Double, 1e-10, 3000)
			if err != nil {
				t.Fatal(err)
			}
			return spinorDigest(x.S), met
		}},
	}

	for _, c := range solves {
		s0 := shardedSolveDigest(t, 1, c.shape, c.global, c.run)
		for _, w := range workerCounts[1:] {
			if s := shardedSolveDigest(t, w, c.shape, c.global, c.run); s != s0 {
				t.Fatalf("%s solve digest at workers=%d: %#x, want %#x", c.op, w, s, s0)
			}
		}
	}

	chaos := func(w int) (uint64, uint32) {
		cfg := chaosConfig(16)
		cfg.Shards = machine.ShardAuto
		cfg.Workers = w
		out, err := RunChaosWilson(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Converged || len(out.Attempts) < 2 {
			t.Fatalf("workers=%d: chaos run %+v", w, out.Attempts)
		}
		return out.Digest, out.SolutionCRC
	}
	d0, c0 := chaos(1)
	for _, w := range workerCounts[1:] {
		d, c := chaos(w)
		if d != d0 {
			t.Fatalf("chaos digest at workers=%d: %#x, want %#x", w, d, d0)
		}
		if c != c0 {
			t.Fatalf("chaos solution CRC at workers=%d: %#x, want %#x", w, c, c0)
		}
	}
}
