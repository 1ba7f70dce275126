package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// stamp is one reading of the host clocks and the Go heap counters.
type stamp struct {
	wall    time.Time
	cpu     time.Duration // user + system time of the whole process
	alloc   uint64        // runtime.MemStats.TotalAlloc
	gcs     uint32        // completed GC cycles
	pauseNS uint64        // total stop-the-world pause
}

// wallNow is the benchmark's only read of the host clock. The
// benchmark measures what the simulator costs the host, so it must read
// host time; no reading ever reaches the simulated machine, whose
// outputs the benchmark checks bit for bit.
func wallNow() time.Time {
	return time.Now() //qcdoclint:walltime-ok host-cost benchmark: wall time is the measured quantity
}

// secondsSince returns the host seconds elapsed from t to now.
func secondsSince(t time.Time) float64 { return wallNow().Sub(t).Seconds() }

// readClock reads the wall clock, the process CPU time and the heap
// counters around a job. ReadMemStats stops the world briefly, so
// finer timings use wallNow alone.
func readClock() stamp {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail for a valid pointer; on a host
	// without it the CPU figure reads zero rather than aborting a run.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return stamp{
		wall:    wallNow(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pauseNS: ms.PauseTotalNs,
	}
}

// maxRSSMB reports the peak resident set of the process so far.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// span is one timed call into a layer of the simulator.
type span struct {
	Job    string  `json:"job"`    // spans of one job share this ID
	ID     int     `json:"id"`     // index in the span list
	Parent int     `json:"parent"` // ID of the enclosing span, -1 at the top
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // host seconds since the run began
	End    float64 `json:"end_s"`
}

// spans records the spans of one traced run in memory. A nil *spans is
// the untraced run: every method is a no-op, so workload code calls
// them unconditionally. Spans nest strictly (the benchmark calls the
// simulator from one goroutine), so the open spans form a stack.
type spans struct {
	origin time.Time
	job    string
	list   []span
	open   []int
}

func newSpans() *spans { return &spans{origin: wallNow()} }

// setJob names the job the next spans belong to.
func (s *spans) setJob(job string) {
	if s != nil {
		s.job = job
	}
}

// begin opens a span and returns its ID for end.
func (s *spans) begin(name string) int {
	if s == nil {
		return -1
	}
	parent := -1
	if n := len(s.open); n > 0 {
		parent = s.open[n-1]
	}
	id := len(s.list)
	s.list = append(s.list, span{Job: s.job, ID: id, Parent: parent, Name: name,
		Start: secondsSince(s.origin)})
	s.open = append(s.open, id)
	return id
}

// end closes the span begin returned, which must be the innermost open
// one.
func (s *spans) end(id int) {
	if s == nil {
		return
	}
	s.list[id].End = secondsSince(s.origin)
	s.open = s.open[:len(s.open)-1]
}

// durations returns the durations in seconds of every span with the
// given name, in recording order.
func (s *spans) durations(name string) []float64 {
	if s == nil {
		return nil
	}
	var d []float64
	for _, sp := range s.list {
		if sp.Name == name {
			d = append(d, sp.End-sp.Start)
		}
	}
	return d
}

// selfTimes sums each span name's self time: its duration minus the
// part of it covered by child spans. Children never overlap each other
// (they are sequential calls on one goroutine), so covered time is the
// sum of the children's durations.
func (s *spans) selfTimes() map[string]float64 {
	self := map[string]float64{}
	if s == nil {
		return self
	}
	child := make([]float64, len(s.list))
	for _, sp := range s.list {
		if sp.Parent >= 0 {
			child[sp.Parent] += sp.End - sp.Start
		}
	}
	for i, sp := range s.list {
		self[sp.Name] += sp.End - sp.Start - child[i]
	}
	return self
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the "inclusive" method); xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile returns the highest whole percentile p with at least
// ten samples above it, and the value there; ok is false when there are
// too few samples for any.
func tailPercentile(xs []float64) (p int, v float64, ok bool) {
	n := len(xs)
	for p = 99; p >= 50; p-- {
		if n*(100-p) >= 10*100 {
			return p, quantile(xs, float64(p)/100), true
		}
	}
	return 0, 0, false
}
