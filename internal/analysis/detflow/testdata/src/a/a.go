// Package a exercises detflow's source->sink matrix: order sources
// (map iteration, select case order) and value sources (wall clock,
// global rand, %p, pointer-to-uintptr) flowing into order-observable
// sinks (event scheduling, digest hashing, ordered append, telemetry
// emission), plus the repairs and waivers that keep a flow quiet.
package a

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
	"unsafe"

	"event"
	"telemetry"
)

// ---- order source: map iteration ----

func mapSchedules(eng *event.Engine, m map[string]int) {
	for k, v := range m { // want `iteration over map m is unordered but the body schedules events \(At\)`
		_ = k
		eng.At(event.Time(v), func() {})
	}
}

func mapQueues(q *event.Queue, m map[int]int) {
	for _, v := range m { // want `iteration over map m is unordered but the body schedules events \(Put\)`
		q.Put(v)
	}
}

func mapAppends(m map[string]int, log []string) []string {
	for k := range m { // want `iteration over map m is unordered but the body appends to ordered output \(log\)`
		log = append(log, k)
	}
	return log
}

func mapEmits(emit telemetry.EmitFunc, m map[string]float64) {
	for k, v := range m { // want `iteration over map m is unordered but the body feeds a telemetry snapshot`
		emit(k, v)
	}
}

func mapDigests(m map[string]int) uint64 {
	h := fnv.New64a()
	for k := range m { // want `iteration over map m is unordered but the body writes a digest`
		h.Write([]byte(k))
	}
	return h.Sum64()
}

// ---- order source: select case order ----

func selectSchedules(eng *event.Engine, a, b chan int) {
	select { // want `select case order is unordered but the body schedules events \(After\)`
	case v := <-a:
		eng.After(event.Time(v), func() {})
	case <-b:
	}
}

func selectAppends(a, b chan int, out *[]int) {
	select { // want `select case order is unordered but the body appends to ordered output \(\*out\)`
	case v := <-a:
		*out = append(*out, v)
	case v := <-b:
		*out = append(*out, v)
	}
}

// ---- order leaking out as a value ----

func mapLastWins(m map[string]int) uint64 {
	last := ""
	for k := range m {
		last = k
	}
	h := fnv.New64a()
	h.Write([]byte(last)) // want `value derived from map iteration order \(last write wins\) reaches a digest`
	return h.Sum64()
}

func mapFloatAccum(emit telemetry.EmitFunc, m map[string]float64) {
	sum := 0.0
	for _, v := range m {
		sum += v
	}
	emit("sum", sum) // want `value derived from map-ordered floating-point accumulation reaches a telemetry snapshot`
}

// ---- value source: wall clock ----

func wallClockSchedules(eng *event.Engine) {
	t := time.Now()
	eng.At(event.Time(t.UnixNano()), func() {}) // want `value derived from time.Now reaches event scheduling \(At\)`
}

func wallClockEmits(emit telemetry.EmitFunc) {
	since := time.Since(time.Time{})
	emit("elapsed", float64(since)) // want `value derived from time.Since reaches a telemetry snapshot`
}

// ---- value source: process-global rand ----

func randSchedules(eng *event.Engine) {
	jitter := rand.Int63()
	eng.After(event.Time(jitter), func() {}) // want `value derived from rand.Int63 reaches event scheduling \(After\)`
}

func randDigests(buf []byte) uint64 {
	n := rand.Intn(len(buf))
	h := fnv.New64a()
	h.Write(buf[:n]) // want `value derived from rand.Intn reaches a digest`
	return h.Sum64()
}

// ---- value source: pointer identity ----

func pointerFormatDigests(eng *event.Engine) uint64 {
	label := fmt.Sprintf("%p", eng)
	h := fnv.New64a()
	h.Write([]byte(label)) // want `value derived from fmt.Sprintf\(%p\) reaches a digest`
	return h.Sum64()
}

func uintptrDigests(eng *event.Engine) uint64 {
	addr := uintptr(unsafe.Pointer(eng))
	h := fnv.New64a()
	h.Write([]byte(fmt.Sprint(addr))) // want `value derived from pointer-to-uintptr conversion reaches a digest`
	return h.Sum64()
}

// ---- interprocedural: flows through same-package helpers ----

func appendHelper(logp *[]string, s string) {
	*logp = append(*logp, s)
}

func mapCallsAppender(m map[string]int, logp *[]string) {
	for k := range m { // want `iteration over map m is unordered but the body calls appendHelper, which appends to ordered output \(appendHelper -> append to \*logp\)`
		appendHelper(logp, k)
	}
}

func nondetStamp() int64 {
	return time.Now().UnixNano()
}

func callsNondetHelper(eng *event.Engine) {
	t := nondetStamp()
	eng.At(event.Time(t), func() {}) // want `value derived from nondetStamp -> time.Now reaches event scheduling \(At\)`
}

func forwardToSchedule(eng *event.Engine, when event.Time) {
	eng.At(when, func() {})
}

func taintedIntoParamSink(eng *event.Engine) {
	t := time.Now().UnixNano()
	forwardToSchedule(eng, event.Time(t)) // want `value derived from time.Now reaches forwardToSchedule \(which passes it to a sink\)`
}

// ---- repairs: these stay quiet ----

// sortedKeys collects, sorts, then observes: the map order never
// reaches a sink.
func sortedKeys(eng *event.Engine, m map[string]int) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for i := range keys {
		eng.At(event.Time(i), func() {})
	}
}

// collectThenSort appends in map order, then sorts before anyone reads
// the output.
func collectThenSort(m map[string]int) []string {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// localAppend's target dies inside the loop body; nothing outlives the
// iteration to observe its order.
func localAppend(m map[string]int) {
	for k := range m {
		parts := []byte(nil)
		parts = append(parts, k...)
		_ = parts
	}
}

// intCounter accumulates commutatively: integer addition is
// order-independent.
func intCounter(emit telemetry.EmitFunc, m map[string]int) {
	n := 0
	for _, v := range m {
		n += v
	}
	emit("n", float64(n))
}

// keyedCopy writes land per-key, not last-write-wins.
func keyedCopy(m, dst map[string]int) {
	for k, v := range m {
		dst[k] = v
	}
}

// ---- waivers: justified flows accrue hits and stay quiet ----

func waivedRegion(eng *event.Engine, m map[string]int) {
	//qcdoclint:detflow-ok handlers here are commutative no-ops; order cannot reach the digest
	for _, v := range m {
		eng.At(event.Time(v), func() {})
	}
}

func waivedValue(eng *event.Engine) {
	t := time.Now()
	eng.At(event.Time(t.UnixNano()), func() {}) //qcdoclint:detflow-ok host-time label only feeds the run banner
}
