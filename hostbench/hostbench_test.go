package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"qcdoc/internal/fermion"
	"qcdoc/internal/fleet"
	"qcdoc/internal/geom"
	"qcdoc/internal/lattice"
)

// tinyCampaign is a one-run solve campaign small enough for -short: a
// Wilson solve on a 4^4 lattice over a 2x2 machine.
func tinyCampaign(pins []runPin) workload {
	return workload{
		name:      "tiny",
		setupReps: 3,
		setup: func(seed uint64, sp *spans) (instance, error) {
			base := fleet.Spec{Machine: geom.MakeShape(2, 2), Mass: 0.5, Tol: 1e-6, MaxIter: 500, Seed: seed}
			specs := fleet.Sweep(base, []lattice.Shape4{{4, 4, 4, 4}}, []fermion.OpKind{fermion.WilsonKind}, nil)
			return newCampaign(specs, pins != nil, pins), nil
		},
	}
}

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	all := append(endToEndMetrics(), layerMetrics()...)
	for _, m := range all {
		if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || seen[m.name] {
			t.Errorf("metric %q (unit %q): bad or repeated name or unit", m.name, m.unit)
		}
		seen[m.name] = true
	}
	if len(layerMetrics()) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(layerMetrics()))
	}

	// BENCHMARK.json at the repository root must list exactly the
	// metrics this program reports, and only workloads it has.
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) < 2 {
		t.Errorf("BENCHMARK.json lists %d workloads, want at least 2", len(bf.Workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program (have %s)", w.Name, strings.Join(workloadNames(), ", "))
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit string }
		prog []metricDef
	}{{bf.EndToEnd, endToEndMetrics()}, {bf.PerLayer, layerMetrics()}} {
		if len(c.file) != len(c.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, program reports %d", len(c.file), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			if c.file[i].Name != m.name || c.file[i].Unit != m.unit {
				t.Errorf("BENCHMARK.json metric %d is %s [%s], program reports %s [%s]",
					i, c.file[i].Name, c.file[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestResultLine runs the smallest campaign through measure and write
// and checks the last output line has exactly the result keys and
// every end-to-end metric, each nonzero.
func TestResultLine(t *testing.T) {
	res, err := measure(tinyCampaign(nil), options{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := res.write(&out, options{seed: 3}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if len(last) != 4 || last["correct"] == nil || last["attempted"] == nil || last["failed"] == nil || last["metrics"] == nil {
		t.Fatalf("result line keys: %s", lines[len(lines)-1])
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if !res.correct || len(metrics) != len(endToEndMetrics()) {
		t.Fatalf("correct=%v, %d metrics: %s", res.correct, len(metrics), lines[len(lines)-1])
	}
	for _, m := range endToEndMetrics() {
		if v, ok := metrics[m.name]; !ok || v.Unit != m.unit || !(v.Value > 0) {
			t.Errorf("metric %s: %+v", m.name, v)
		}
	}
}

// TestPlantedDigestMismatch: a pin that disagrees with the simulator's
// digest must count the job as failed.
func TestPlantedDigestMismatch(t *testing.T) {
	res, err := measure(tinyCampaign([]runPin{{digest: 0xbad}}), options{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.correct || res.failed == 0 || !(res.detail["failed_frac"].(float64) > 0) {
		t.Fatalf("planted mismatch not caught: correct=%v failed=%d detail=%v", res.correct, res.failed, res.detail)
	}
}

// TestTracedRunReportsEveryLayerMetric runs the smallest campaign
// traced: every per-layer metric is present, and the spans nest.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	res, err := measure(tinyCampaign(nil), options{seed: 3, trace: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range layerMetrics() {
		if _, ok := res.metrics.values[m.name]; !ok {
			t.Errorf("missing %s", m.name)
		}
	}
	for _, m := range []string{"fleet.runs_per_s", "event.events", "solver.iterations.wilson", "fermion.host_mflops.wilson"} {
		if !(res.metrics.get(m) > 0) {
			t.Errorf("%s = %v, want > 0", m, res.metrics.get(m))
		}
	}
	for _, s := range res.spans.list {
		if s.End < s.Start || (s.Parent >= 0 && (s.Start < res.spans.list[s.Parent].Start || s.End > res.spans.list[s.Parent].End)) {
			t.Errorf("span %+v does not nest in its parent", s)
		}
	}
}

// TestWorkloads runs one untraced job of every real workload.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one job of every workload (~10 s)")
	}
	for _, w := range workloads() {
		w.setupReps = 1
		res, err := measure(w, options{seed: defaultSeed})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct {
			t.Errorf("%s: %v", w.name, res.detail["failures"])
		}
		for _, m := range endToEndMetrics() {
			if !(res.metrics.get(m.name) > 0) {
				t.Errorf("%s: %s = %v", w.name, m.name, res.metrics.get(m.name))
			}
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "e1_wilson", "-trace", "2"},
		{"-bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run %v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if median(xs) != 3 || quantile(xs, 0.25) != 2 || quantile(xs, 1) != 5 {
		t.Errorf("quantiles of %v: %v %v %v", xs, median(xs), quantile(xs, 0.25), quantile(xs, 1))
	}
	if _, _, ok := tailPercentile(make([]float64, 19)); ok {
		t.Error("19 samples cannot have ten beyond the median")
	}
	many := make([]float64, 100)
	for i := range many {
		many[i] = float64(i)
	}
	if p, _, ok := tailPercentile(many); !ok || p != 90 {
		t.Errorf("tail percentile of 100 samples = p%d, want p90", p)
	}
}

func TestSelfTimes(t *testing.T) {
	s := &spans{list: []span{
		{ID: 0, Parent: -1, Name: "outer", Start: 0, End: 10},
		{ID: 1, Parent: 0, Name: "inner", Start: 1, End: 4},
		{ID: 2, Parent: 0, Name: "inner", Start: 5, End: 7},
	}}
	self := s.selfTimes()
	if self["outer"] != 5 || self["inner"] != 5 {
		t.Errorf("self times %v, want outer 5, inner 5", self)
	}
}
