// Command hostbench measures what the QCDOC simulator costs its host:
// four workloads, each run as a closed loop of identical jobs for a
// fixed time, with every job's simulated outputs checked. An untraced
// run reports the end-to-end metrics; a traced run (-trace 1) reports
// per-layer attribution from spans around each public call into the
// simulator and from the simulator's public counters. README.md records
// why each workload exists and which layer metric should move which
// end-to-end metric.
//
// Usage:
//
//	hostbench -workload e1_wilson -seed 1 -seconds 30 -trace 0 [-out dir] [-commit sha]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The line before it is a detail object
// with provenance, job-time quartiles, the tail percentile, failures and
// the simulated outputs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// defaultSeed reproduces the repository's pinned fixed points (E1's
// gauge seed 1 and source seed 2, the fleet's configuration seed 1, the
// chaos campaigns' configuration seed 4001). heldOutSeed is never used
// while tuning the benchmark or a change; a claimed gain must also hold
// there.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	commit   string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed; the inputs are a pure function of it")
	fs.Float64Var(&o.seconds, "seconds", 10, "host seconds of jobs to measure (at least one job always runs)")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "directory for the result and span files (none written when empty)")
	fs.StringVar(&o.commit, "commit", "unknown", "commit of the simulator sources, recorded in the provenance")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(stderr, "hostbench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	o.trace = trace == 1
	w, ok := findWorkload(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "hostbench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	res, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", w.name, err)
		return 1
	}
	if err := res.write(stdout, o); err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	return 0
}

// instance is a workload after set-up: a ready machine or campaign
// that runs identical jobs.
type instance interface {
	// job runs one job and checks its simulated outputs: against the
	// pinned fixed points at the default seed, otherwise against the
	// first job of the run. sp is nil on untraced jobs.
	job(sp *spans) error
	// layers fills the per-layer metrics once a traced run's jobs are
	// done; it may run further standalone timings.
	layers(lr *layerRun) error
	// sim reports the simulated outputs of the last job.
	sim() map[string]any
	close()
}

// workload is one named set of inputs.
type workload struct {
	name string
	// setupReps is how many setup_s samples a run takes; setup_s is
	// the fastest. Set-up is short and single-threaded, and on a shared
	// host such work runs at one of two speeds about 2x apart in
	// stretches, so the median of a run flips between them while the
	// fastest sample stays put. The last instance runs the jobs.
	setupReps int
	// setupBatch is how many set-ups one sample times back to back
	// (the sample is their mean), for set-ups too short to time alone.
	setupBatch int
	setup      func(seed uint64, sp *spans) (instance, error)
}

func workloads() []workload {
	return []workload{e1Workload(), rackWorkload(), operatorMixWorkload(), chaosWorkload()}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// jobSample is one job's host cost.
type jobSample struct {
	wall, cpu, allocMB float64
	gcs                uint32
	gcPauseMS          float64
	traced             bool
	err                error
}

// layerRun is what a traced run hands to instance.layers.
type layerRun struct {
	m    *metricSet
	sp   *spans
	seed uint64
	jobs []jobSample
}

// walls returns the wall times of the traced or untraced jobs.
func (lr *layerRun) walls(traced bool) []float64 {
	var w []float64
	for _, j := range lr.jobs {
		if j.traced == traced {
			w = append(w, j.wall)
		}
	}
	return w
}

// result is one run's outcome.
type result struct {
	workload  string
	correct   bool
	attempted int
	failed    int
	metrics   *metricSet
	detail    map[string]any
	spans     *spans
}

// measure sets the workload up setupReps times, then runs jobs until
// the measured time is spent. Untraced runs time every job; traced runs
// alternate untraced and traced jobs, so the tracing overhead is
// measured within one process.
func measure(w workload, o options) (*result, error) {
	var sp *spans
	if o.trace {
		sp = newSpans()
	}
	var inst instance
	var setups []float64
	for i := 0; i < w.setupReps; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		// Each set-up and the first job start from a collected heap, so
		// one rep's garbage is not charged to the next.
		runtime.GC()
		sp.setJob(fmt.Sprintf("setup%d", i))
		batch := max(w.setupBatch, 1)
		start := wallNow()
		for b := 0; b < batch; b++ {
			if b > 0 {
				inst.close()
			}
			var err error
			if inst, err = w.setup(o.seed, sp); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
		}
		setups = append(setups, secondsSince(start)/float64(batch))
	}
	defer inst.close()

	runtime.GC()
	var jobs []jobSample
	begin := wallNow()
	for i := 0; ; i++ {
		traced := o.trace && i%2 == 1
		var jsp *spans
		if traced {
			jsp = sp
			sp.setJob(fmt.Sprintf("job%d", i))
		}
		start := readClock()
		err := inst.job(jsp)
		end := readClock()
		jobs = append(jobs, jobSample{
			wall:      end.wall.Sub(start.wall).Seconds(),
			cpu:       (end.cpu - start.cpu).Seconds(),
			allocMB:   float64(end.alloc-start.alloc) / 1e6,
			gcs:       end.gcs - start.gcs,
			gcPauseMS: float64(end.pauseNS-start.pauseNS) / 1e6,
			traced:    traced,
			err:       err,
		})
		if secondsSince(begin) >= o.seconds && (!o.trace || i >= 1) {
			break
		}
	}

	res := &result{workload: w.name, attempted: len(jobs), spans: sp}
	var walls, cpus, allocs []float64
	var failures []string
	for _, j := range jobs {
		if j.err != nil {
			res.failed++
			if len(failures) < 5 {
				failures = append(failures, j.err.Error())
			}
		}
		if !j.traced {
			walls = append(walls, j.wall)
			cpus = append(cpus, j.cpu)
			allocs = append(allocs, j.allocMB)
		}
	}
	res.correct = res.failed == 0
	failedFrac := float64(res.failed) / float64(res.attempted)

	if o.trace {
		res.metrics = newMetricSet(layerMetrics())
		lr := &layerRun{m: res.metrics, sp: sp, seed: o.seed, jobs: jobs}
		fillRuntimeLayers(lr)
		if err := inst.layers(lr); err != nil {
			return nil, fmt.Errorf("per-layer measurement: %w", err)
		}
	} else {
		res.metrics = newMetricSet(endToEndMetrics())
		res.metrics.set("setup_s", slices.Min(setups))
		res.metrics.set("job_s", median(walls))
		res.metrics.set("job_cpu_s", median(cpus))
		res.metrics.set("alloc_mb", median(allocs))
		res.metrics.set("max_rss_mb", maxRSSMB())
	}

	jobStats := map[string]any{
		"walls_s":   walls,
		"allocs_mb": allocs,
		"samples":   len(walls),
		"p25_s":     quantile(walls, 0.25),
		"p50_s":     median(walls),
		"p75_s":     quantile(walls, 0.75),
	}
	if p, v, ok := tailPercentile(walls); ok {
		jobStats[fmt.Sprintf("p%d_s", p)] = v
	}
	res.detail = map[string]any{
		"workload":    w.name,
		"seed":        o.seed,
		"default_pin": o.seed == defaultSeed,
		"trace":       o.trace,
		"seconds":     o.seconds,
		"provenance":  provenance(o.commit),
		"setup_s":     setups,
		"job_s":       jobStats,
		"failed_frac": failedFrac,
		"failures":    failures,
		"sim":         inst.sim(),
	}
	if o.trace {
		res.detail["self_s"] = sp.selfTimes()
	}
	return res, nil
}

// fillRuntimeLayers sets the layer metrics every workload measures the
// same way: Go runtime cost per untraced job, and tracing overhead.
func fillRuntimeLayers(lr *layerRun) {
	var gcs, pauses []float64
	for _, j := range lr.jobs {
		if !j.traced {
			gcs = append(gcs, float64(j.gcs))
			pauses = append(pauses, j.gcPauseMS)
		}
	}
	lr.m.set("runtime.gc_cycles", median(gcs))
	lr.m.set("runtime.gc_pause_ms", median(pauses))
	lr.m.set("trace.overhead_frac", median(lr.walls(true))/median(lr.walls(false))-1)
}

// write prints the detail line and the result line, and saves both
// (plus the spans of a traced run) under o.out when it is set.
func (r *result) write(stdout io.Writer, o options) error {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics.values}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	detail, err := json.Marshal(map[string]any{"detail": r.detail})
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return err
		}
		stem := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%v", r.workload, o.seed, o.trace))
		out := append(append(append(detail, '\n'), last...), '\n')
		if err := os.WriteFile(stem+".json", out, 0o644); err != nil {
			return err
		}
		if r.spans != nil {
			js, err := json.Marshal(map[string]any{"provenance": provenance(o.commit), "spans": r.spans.list})
			if err != nil {
				return err
			}
			if err := os.WriteFile(stem+"-spans.json", js, 0o644); err != nil {
				return err
			}
		}
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", detail, last)
	return err
}

// provenance identifies the host and build a number came from, so
// figures from different machines are never compared by mistake.
func provenance(commit string) map[string]any {
	return map[string]any{
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     commit,
	}
}

// cpuModel reads the processor name Linux reports.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
