package main

import (
	"fmt"

	"qcdoc/internal/event"
	"qcdoc/internal/geom"
	"qcdoc/internal/machine"
	"qcdoc/internal/node"
	"qcdoc/internal/qmp"
	"qcdoc/internal/scu"
)

// rackPrograms is how many E11 programs one rack_halo job chains. One
// warm program takes ~40-50 ms of host time at two workers, too short
// to time steadily alone.
const rackPrograms = 10

// haloWords is the E11 program's per-round dim-0 halo size.
const haloWords = 16

// rackPin returns the default-seed fixed points: boot ends at 12.348
// sim-us, and every E11 program takes 62.686 sim-us, so the first one
// after a cold boot ends at E11's 75.034 sim-us.
func rackPin() (boot, program event.Time) {
	return 12348 * event.Nanosecond, 62686 * event.Nanosecond
}

// rackWorkload is many shallow per-shard heaps: the paper's 1024-node
// rack in 16 shards at two workers, where barriers, mailboxes, build and
// memsys first touch dominate and latmath is almost absent. It is not
// in BENCHMARK.json: on a shared two-core host its job time switches
// between two levels a factor of two apart (README.md).
func rackWorkload() workload {
	return workload{
		name:      "rack_halo",
		setupReps: 3,
		setup: func(seed uint64, sp *spans) (instance, error) {
			return newRack(seed, 2, sp)
		},
	}
}

type rack struct {
	eng     *event.Engine
	m       *machine.Machine
	prog    func(rank int) node.Program
	seed    uint64
	workers int
	closed  bool

	// Per-rank buffers and results; each rank writes only its own
	// element, so shards never share a slot. The buffers are allocated
	// by the first program and reused, so node memory stays the same
	// however many programs a run chains.
	sendAddr, recvAddr []uint64
	sum                []float64
	errs               []error

	bootSim, programSim event.Time // programSim: the reference duration
	coldAllocMB         float64
	traced              []layerCounts
	windows, cross      []float64
}

// newRack builds and boots the 1024-node machine, then runs the first
// (cold) program, whose first-touch memory cost belongs to set-up.
func newRack(seed uint64, workers int, sp *spans) (*rack, error) {
	shape := machine.Machine1024Shape()
	cfg := machine.DefaultConfig(shape)
	cfg.Shards = machine.ShardAuto
	cfg.Workers = workers
	eng := event.New()
	id := sp.begin("machine.Build")
	m := machine.Build(eng, cfg)
	sp.end(id)
	r := &rack{eng: eng, m: m, seed: seed, workers: workers}
	v := m.NumNodes()
	r.sendAddr, r.recvAddr = make([]uint64, v), make([]uint64, v)
	r.sum, r.errs = make([]float64, v), make([]error, v)
	r.prog = r.program(shape)
	id = sp.begin("machine.Boot")
	err := m.Boot()
	sp.end(id)
	if err != nil {
		r.close()
		return nil, fmt.Errorf("boot: %w", err)
	}
	r.bootSim = eng.Now()
	wantBoot, wantProg := rackPin()
	if seed == defaultSeed && r.bootSim != wantBoot {
		r.close()
		return nil, fmt.Errorf("rack boot ended at %v, want %v", r.bootSim, wantBoot)
	}
	start := readClock()
	d, err := r.runProgram(sp)
	r.coldAllocMB = float64(readClock().alloc-start.alloc) / 1e6
	if err == nil && seed == defaultSeed && d != wantProg {
		err = fmt.Errorf("cold program took %v, want %v (E11 end %v)", d, wantProg, r.bootSim+wantProg)
	}
	if err != nil {
		r.close()
		return nil, fmt.Errorf("cold program: %w", err)
	}
	r.programSim = d
	return r, nil
}

// program is the E11 rack program: four rounds of a 16-word dim-0
// halo exchange, then a doubled global sum. The payload words are a
// function of the seed, rank and word index. Reusing the first
// program's buffers leaves simulated time unchanged: allocation and
// host-side memory writes cost no simulated time.
func (r *rack) program(shape geom.Shape) func(rank int) node.Program {
	fold := geom.IdentityFold(shape)
	return func(rank int) node.Program {
		return func(ctx *node.Ctx) {
			n := ctx.N
			if r.sendAddr[rank] == 0 {
				r.sendAddr[rank] = n.AllocWords(haloWords)
				r.recvAddr[rank] = n.AllocWords(haloWords)
			}
			sendAddr, recvAddr := r.sendAddr[rank], r.recvAddr[rank]
			for w := 0; w < haloWords; w++ {
				n.Mem.WriteWord(sendAddr+8*uint64(w), haloWord(r.seed, rank, w))
			}
			for round := 0; round < 4; round++ {
				rt, err := n.SCU.StartRecv(geom.Link{Dim: 0, Dir: geom.Bwd}, scu.Contiguous(recvAddr, haloWords))
				if err != nil {
					r.errs[rank] = err
					return
				}
				st, err := n.SCU.StartSend(geom.Link{Dim: 0, Dir: geom.Fwd}, scu.Contiguous(sendAddr, haloWords))
				if err != nil {
					r.errs[rank] = err
					return
				}
				st.Wait(ctx.P)
				rt.Wait(ctx.P)
			}
			r.sum[rank] = qmp.New(ctx, fold).GlobalSumFloat64Doubled(ctx.P, float64(rank))
		}
	}
}

// haloWord is the payload word w of a rank's send buffer.
func haloWord(seed uint64, rank, w int) uint64 {
	return (uint64(rank)<<32 | uint64(w)) ^ (seed * 0x9E3779B97F4A7C15)
}

// runProgram runs one program and checks its outputs: every rank holds
// its backward neighbour's halo words and the exact global sum of the
// ranks. It returns the program's simulated duration.
func (r *rack) runProgram(sp *spans) (event.Time, error) {
	for i := range r.errs {
		r.errs[i], r.sum[i] = nil, 0
	}
	t0 := r.eng.Now()
	id := sp.begin("machine.RunSPMD")
	err := r.m.RunSPMD("e11", r.prog)
	sp.end(id)
	if err != nil {
		return 0, err
	}
	shape := r.m.Cfg.Shape
	v := r.m.NumNodes()
	wantSum := float64(v*(v-1)) / 2
	for rank := 0; rank < v; rank++ {
		if r.errs[rank] != nil {
			return 0, fmt.Errorf("rank %d: %w", rank, r.errs[rank])
		}
		if r.sum[rank] != wantSum {
			return 0, fmt.Errorf("rank %d: global sum %v, want %v", rank, r.sum[rank], wantSum)
		}
		nb := shape.Rank(shape.Neighbor(shape.CoordOf(rank), 0, geom.Bwd))
		mem := r.m.Nodes[rank].Mem
		for w := 0; w < haloWords; w++ {
			if got, want := mem.ReadWord(r.recvAddr[rank]+8*uint64(w)), haloWord(r.seed, nb, w); got != want {
				return 0, fmt.Errorf("rank %d halo word %d: %#x, want %#x from rank %d", rank, w, got, want, nb)
			}
		}
	}
	return r.eng.Now() - t0, nil
}

func (r *rack) job(sp *spans) error {
	c := r.eng.Cluster()
	before, cl0 := countersOf(clusterExecuted(c), r.m), c.Stats()
	for i := 0; i < rackPrograms; i++ {
		d, err := r.runProgram(sp)
		if err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
		if d != r.programSim {
			return fmt.Errorf("program %d took %v of simulated time, want %v", i, d, r.programSim)
		}
	}
	if sp != nil {
		cl := c.Stats()
		r.traced = append(r.traced, countersOf(clusterExecuted(c), r.m).since(before))
		r.windows = append(r.windows, float64(cl.Windows-cl0.Windows))
		r.cross = append(r.cross, float64(cl.CrossMessages-cl0.CrossMessages))
	}
	return nil
}

func (r *rack) sim() map[string]any {
	return map[string]any{
		"boot_sim_us":         r.bootSim.Seconds() * 1e6,
		"program_sim_us":      r.programSim.Seconds() * 1e6,
		"e11_cold_end_sim_us": (r.bootSim + r.programSim).Seconds() * 1e6,
		"programs_per_job":    rackPrograms,
		"shards":              r.m.Cluster().NumShards(),
		"workers":             r.workers,
	}
}

// layers adds the cluster counters and the shard speedup: the traced
// job time of the same rack at one worker over that at two. The
// two-worker rack is released first, so only one rack is resident.
func (r *rack) layers(lr *layerRun) error {
	m := lr.m
	setCounts(m, r.traced, lr.walls(false))
	windows := median(r.windows)
	m.set("event.windows", windows)
	m.set("event.cross_messages", median(r.cross))
	if windows > 0 {
		m.set("event.events_per_window", m.get("event.events")/windows)
	}
	setMachineSpans(m, lr.sp)
	var warm []float64
	for _, j := range lr.jobs {
		if !j.traced {
			warm = append(warm, j.allocMB/rackPrograms)
		}
	}
	m.set("memsys.first_touch_mb", r.coldAllocMB-median(warm))

	traced2 := lr.walls(true)
	r.close()
	lr.sp.setJob("workers1")
	one, err := newRack(r.seed, 1, lr.sp)
	if err != nil {
		return fmt.Errorf("one-worker rack: %w", err)
	}
	defer one.close()
	var traced1 []float64
	for i := 0; i < min(len(traced2), 3); i++ {
		lr.sp.setJob(fmt.Sprintf("workers1-job%d", i))
		start := wallNow()
		if err := one.job(lr.sp); err != nil {
			return fmt.Errorf("one-worker rack: %w", err)
		}
		traced1 = append(traced1, secondsSince(start))
	}
	m.set("event.shard_speedup", median(traced1)/median(traced2))
	return nil
}

func (r *rack) close() {
	if !r.closed {
		r.closed = true
		r.eng.Shutdown()
	}
}
