package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are what a user of the simulator sees, measured with
// tracing off (BENCHMARK.json "end_to_end"). failed_frac is reported in
// the detail line and through the result's attempted/failed counts: it
// is 0 on a correct run, and a bounded metric needs a nonzero median.
func endToEndMetrics() []metricDef {
	return []metricDef{
		{"setup_s", "s"},
		{"job_s", "s"},
		{"job_cpu_s", "s"},
		{"alloc_mb", "MB"},
		{"max_rss_mb", "MB"},
	}
}

// opNames are the fermion operators, in the suffix order of the
// per-operator layer metrics.
func opNames() []string { return []string{"wilson", "clover", "asqtad", "dwf"} }

// rungNames are the recovery-ladder rungs counted per kind.
func rungNames() []string {
	return []string{"chunk_retry", "generation_fallback", "repartition", "false_positive", "redetect"}
}

// layerMetrics are the per-layer metrics of the traced run
// (BENCHMARK.json "per_layer"), grouped by the simulator package that
// spends the time. Every workload reports every one; a layer the
// workload does not exercise reads 0.
func layerMetrics() []metricDef {
	defs := []metricDef{
		{"event.events", "count"},
		{"event.events_per_word", "ratio"},
		{"event.host_ns_per_event", "ns"},
		{"event.peak_pending", "count"},
		{"event.windows", "count"},
		{"event.cross_messages", "count"},
		{"event.events_per_window", "ratio"},
		{"event.shard_speedup", "ratio"},
		{"machine.build_s", "s"},
		{"machine.boot_s", "s"},
		{"machine.pool_storage_reused", "count"},
		{"machine.pool_rings_reused", "count"},
		{"memsys.first_touch_mb", "MB"},
		{"scu.words_sent", "count"},
		{"scu.resends", "count"},
		{"hssl.frames", "count"},
		{"hssl.corrupted", "count"},
	}
	perOp := []metricDef{
		{"fermion.host_mflops", "Mflop/s"},
		{"latmath.flops_per_byte", "flop/B"},
		{"solver.iterations", "count"},
		{"solver.applications", "count"},
		{"core.solve_s", "s"},
		{"core.halo_words_per_iter", "count"},
	}
	for _, m := range perOp {
		for _, op := range opNames() {
			defs = append(defs, metricDef{m.name + "." + op, m.unit})
		}
	}
	defs = append(defs,
		metricDef{"core.sim_ns_per_iter", "ns"},
		metricDef{"core.efficiency_pct", "%"},
		metricDef{"checkpoint.encode_mb_s", "MB/s"},
		metricDef{"checkpoint.decode_mb_s", "MB/s"},
		metricDef{"checkpoint.manifest_decode_us", "us"},
		metricDef{"recovery.attempts", "count"},
	)
	for _, k := range rungNames() {
		defs = append(defs, metricDef{"recovery.rungs." + k, "count"})
	}
	return append(defs,
		metricDef{"qdaemon.detect_sim_us_p50", "us"},
		metricDef{"fleet.runs_per_s", "1/s"},
		metricDef{"fleet.parallel_eff", "ratio"},
		metricDef{"fleet.critical_path_frac", "ratio"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet holds one run's values for a fixed list of metrics.
type metricSet struct {
	units  map[string]string
	values map[string]metricValue
}

// newMetricSet starts every listed metric at 0.
func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{units: map[string]string{}, values: map[string]metricValue{}}
	for _, d := range defs {
		m.units[d.name] = d.unit
		m.values[d.name] = metricValue{Value: 0, Unit: d.unit}
	}
	return m
}

// set records a value; naming an undeclared metric is a bug in the
// benchmark and panics.
func (m *metricSet) set(name string, v float64) {
	unit, ok := m.units[name]
	if !ok {
		panic("hostbench: undeclared metric " + name)
	}
	m.values[name] = metricValue{Value: v, Unit: unit}
}

// get returns a recorded value.
func (m *metricSet) get(name string) float64 { return m.values[name].Value }
