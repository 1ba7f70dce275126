package main

import (
	"bytes"
	"fmt"

	"qcdoc/internal/checkpoint"
	"qcdoc/internal/fermion"
	"qcdoc/internal/lattice"
	"qcdoc/internal/memsys"
)

// minTimed is how long each standalone timing repeats its call: long
// enough that timer resolution and one-off cache misses vanish, short
// enough that a traced run's extras stay a few seconds.
const minTimed = 0.2

// timeRepeated calls fn until minTimed host seconds have passed (at
// least three times) and returns the calls made and seconds taken.
func timeRepeated(fn func() error) (int, float64, error) {
	start := wallNow()
	n := 0
	for {
		if err := fn(); err != nil {
			return n, 0, err
		}
		n++
		if el := secondsSince(start); n >= 3 && el >= minTimed {
			return n, el, nil
		}
	}
}

func medianOf(cs []layerCounts, f func(layerCounts) float64) float64 {
	v := make([]float64, len(cs))
	for i, c := range cs {
		v[i] = f(c)
	}
	return median(v)
}

// setCounts records the event, SCU and HSSL counters of the traced
// jobs, per job. The host cost per event divides the untraced job time
// by the events one job dispatches.
func setCounts(m *metricSet, cs []layerCounts, untracedWalls []float64) {
	events := medianOf(cs, func(c layerCounts) float64 { return c.events })
	words := medianOf(cs, func(c layerCounts) float64 { return c.words })
	m.set("event.events", events)
	if words > 0 {
		m.set("event.events_per_word", events/words)
	}
	if events > 0 {
		m.set("event.host_ns_per_event", 1e9*median(untracedWalls)/events)
	}
	m.set("scu.words_sent", words)
	m.set("scu.resends", medianOf(cs, func(c layerCounts) float64 { return c.resends }))
	m.set("hssl.frames", medianOf(cs, func(c layerCounts) float64 { return c.frames }))
	m.set("hssl.corrupted", medianOf(cs, func(c layerCounts) float64 { return c.corrupted }))
}

// setMachineSpans records the median Build and Boot span of the run.
func setMachineSpans(m *metricSet, sp *spans) {
	m.set("machine.build_s", median(sp.durations("machine.Build")))
	m.set("machine.boot_s", median(sp.durations("machine.Boot")))
}

// firstTouchMB is the first job's Go allocation minus a later job's:
// what the first job pays for memory the later ones find allocated.
func firstTouchMB(jobs []jobSample) float64 {
	if len(jobs) < 2 {
		return 0
	}
	var later []float64
	for _, j := range jobs[1:] {
		later = append(later, j.allocMB)
	}
	return jobs[0].allocMB - median(later)
}

// flopsPerByte is the operator's computed arithmetic intensity per
// site from the cost model (double precision, EDRAM-resident): useful
// flops over bytes loaded and stored. It is computed, not measured.
func flopsPerByte(kind fermion.OpKind, ls int) float64 {
	c := fermion.SiteCost(kind, fermion.Double, memsys.EDRAM)
	if kind == fermion.DWFKind {
		c = fermion.DWFSiteCost(fermion.Double, memsys.EDRAM, ls)
	}
	return c.Flops / (c.LoadBytes + c.StoreBytes)
}

// refMflops times the single-process reference operator's Apply on a
// lattice of the run's local volume and returns host Mflop/s, counting
// the cost model's useful flops per site.
func refMflops(kind fermion.OpKind, local lattice.Shape4, ls int, mass float64, seed uint64, sp *spans) (float64, error) {
	g := lattice.NewGaugeField(local)
	g.Randomize(seed)
	sites := float64(local.Volume())
	var apply func()
	flops := fermion.FlopsPerSite(kind) * sites
	switch kind {
	case fermion.WilsonKind, fermion.CloverKind:
		src, dst := lattice.NewFermionField(local), lattice.NewFermionField(local)
		src.Gaussian(seed + 1)
		var op fermion.DiracOperator = fermion.NewWilson(g, mass)
		if kind == fermion.CloverKind {
			op = fermion.NewClover(g, mass, 1.0)
		}
		apply = func() { op.Apply(dst, src) }
	case fermion.AsqtadKind:
		src, dst := lattice.NewColorField(local), lattice.NewColorField(local)
		src.Gaussian(seed + 1)
		op := fermion.NewASQTAD(g, mass)
		apply = func() { op.Apply(dst, src) }
	case fermion.DWFKind:
		src, dst := fermion.NewField5(local, ls), fermion.NewField5(local, ls)
		src.Gaussian(seed + 1)
		op := fermion.NewDWF(g, 1.8, mass, ls)
		apply = func() { op.Apply(dst, src) }
		flops = fermion.DWFSiteCost(fermion.Double, memsys.EDRAM, ls).Flops * sites * float64(ls)
	default:
		return 0, fmt.Errorf("no reference operator for %v", kind)
	}
	id := sp.begin("fermion." + kind.String() + ".Apply")
	n, secs, err := timeRepeated(func() error { apply(); return nil })
	sp.end(id)
	if err != nil {
		return 0, err
	}
	return flops * float64(n) / secs / 1e6, nil
}

// setCodecRates times the checkpoint codec standalone: solver-state
// encode and decode of a field of the given shape, and decode of a
// manifest of the given generation and rank counts.
func setCodecRates(m *metricSet, l lattice.Shape4, gens, ranks int, seed uint64, sp *spans) error {
	x := lattice.NewFermionField(l)
	x.Gaussian(seed)
	var buf bytes.Buffer
	id := sp.begin("checkpoint.WriteSolverState")
	n, secs, err := timeRepeated(func() error {
		buf.Reset()
		return checkpoint.WriteSolverState(&buf, x, 10)
	})
	sp.end(id)
	if err != nil {
		return err
	}
	blob := append([]byte(nil), buf.Bytes()...)
	m.set("checkpoint.encode_mb_s", float64(len(blob))*float64(n)/secs/1e6)

	var y *lattice.FermionField
	id = sp.begin("checkpoint.ReadSolverState")
	n, secs, err = timeRepeated(func() error {
		var err error
		y, _, err = checkpoint.ReadSolverState(bytes.NewReader(blob))
		return err
	})
	sp.end(id)
	if err != nil {
		return err
	}
	if checkpoint.FermionCRC(y) != checkpoint.FermionCRC(x) {
		return fmt.Errorf("checkpoint round trip changed the field")
	}
	m.set("checkpoint.decode_mb_s", float64(len(blob))*float64(n)/secs/1e6)

	man := &checkpoint.Manifest{}
	for g := 0; g < gens; g++ {
		crcs := make([]uint32, ranks)
		for r := range crcs {
			crcs[r] = checkpoint.BlobCRC(blob[r:])
		}
		man.Generations = append(man.Generations, checkpoint.Generation{Attempt: 1, Iter: 10 * (g + 1), CRCs: crcs})
	}
	buf.Reset()
	if err := checkpoint.WriteManifest(&buf, man); err != nil {
		return err
	}
	enc := append([]byte(nil), buf.Bytes()...)
	id = sp.begin("checkpoint.ReadManifest")
	n, secs, err = timeRepeated(func() error {
		_, err := checkpoint.ReadManifest(bytes.NewReader(enc))
		return err
	})
	sp.end(id)
	if err != nil {
		return err
	}
	m.set("checkpoint.manifest_decode_us", 1e6*secs/float64(n))
	return nil
}
