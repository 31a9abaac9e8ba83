package main

import (
	"math/bits"
	"time"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/machine"
)

// now reads the host wall clock. Every host timing in the bench goes
// through it; none of it reaches a simulation.
func now() time.Time {
	return time.Now() //lint:allow detrand host wall-clock timing is the benchmark's purpose
}

// histBuckets bounds callAgg's histogram: bucket b counts calls that took
// [2^(b-1), 2^b) ns, and the last bucket takes everything longer.
const histBuckets = 40

// timeEvery: the wrappers count every call but time one in timeEvery.
// Reading the clock costs more than most of the calls it would time, so
// timing them all would mostly measure the clock.
const timeEvery = 16

// callAgg aggregates the calls through one layer boundary.
type callAgg struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	// Timed calls are one in timeEvery. SumNs and Hist cover those only,
	// net of the clock read's own cost (clockNs).
	Timed int64              `json:"timed"`
	SumNs int64              `json:"sum_ns"`
	Hist  [histBuckets]int64 `json:"hist_log2_ns"`

	clockNs int64
}

// start counts a call and, if this call is to be timed, reads the clock.
func (a *callAgg) start() (time.Time, bool) {
	a.Count++
	if a.Count%timeEvery != 0 {
		return time.Time{}, false
	}
	return now(), true
}

func (a *callAgg) stop(start time.Time, timed bool) {
	if !timed {
		return
	}
	d := max(now().Sub(start).Nanoseconds()-a.clockNs, 0)
	a.Timed++
	a.SumNs += d
	a.Hist[min(bits.Len64(uint64(d)), histBuckets-1)]++
}

// seconds estimates the host time of all calls from the timed ones.
func (a *callAgg) seconds() float64 {
	if a.Timed == 0 {
		return 0
	}
	return float64(a.SumNs) / float64(a.Timed) * float64(a.Count) / 1e9
}

// clockCost is the median time an empty timed region reads: what every
// timed call's duration includes besides the call itself.
func clockCost() int64 {
	const n = 1001
	d := make([]float64, n)
	for i := range d {
		t := now()
		d[i] = float64(now().Sub(t).Nanoseconds())
	}
	return int64(median(d))
}

// layers holds the traced set's wrappers around the layers' public
// interfaces. They forward every call unchanged, so a traced rep has the
// same fingerprint as an untraced one. A nil *layers wraps nothing.
type layers struct {
	delay, onAccess, tick, charge, record callAgg
}

func newLayers() *layers {
	c := clockCost()
	return &layers{
		delay:    callAgg{Name: "machine.delay", clockNs: c},
		onAccess: callAgg{Name: "migrate.onaccess", clockNs: c},
		tick:     callAgg{Name: "migrate.tick", clockNs: c},
		charge:   callAgg{Name: "obsv.charge", clockNs: c},
		record:   callAgg{Name: "obsv.record", clockNs: c},
	}
}

func (l *layers) aggs() []callAgg {
	return []callAgg{l.delay, l.onAccess, l.tick, l.charge, l.record}
}

// network wraps a Config.Network factory. The flat model (nil factory) has
// no interface to wrap and is left alone.
func (l *layers) network(f func(int) machine.Network) func(int) machine.Network {
	if l == nil || f == nil {
		return f
	}
	return func(nodes int) machine.Network { return &timedNet{inner: f(nodes), agg: &l.delay} }
}

type timedNet struct {
	inner machine.Network
	agg   *callAgg
}

func (t *timedNet) Delay(src, dst, words int, depart instr.Instr) instr.Instr {
	start, timed := t.agg.start()
	d := t.inner.Delay(src, dst, words, depart)
	t.agg.stop(start, timed)
	return d
}

// MinDelay is forwarded untimed: it is the parallel engine's lookahead.
func (t *timedNet) MinDelay() instr.Instr { return t.inner.MinDelay() }

// policy wraps a migration policy.
func (l *layers) policy(p core.MigrationPolicy) core.MigrationPolicy {
	if l == nil {
		return p
	}
	return &timedPolicy{inner: p, onAccess: &l.onAccess, tick: &l.tick}
}

type timedPolicy struct {
	inner          core.MigrationPolicy
	onAccess, tick *callAgg
}

func (t *timedPolicy) OnAccess(rt *core.RT, n *core.NodeRT, o *core.Object, from int) (int, bool) {
	start, timed := t.onAccess.start()
	dest, move := t.inner.OnAccess(rt, n, o, from)
	t.onAccess.stop(start, timed)
	return dest, move
}

func (t *timedPolicy) Tick(rt *core.RT, at core.Instr) {
	start, timed := t.tick.start()
	t.inner.Tick(rt, at)
	t.tick.stop(start, timed)
}

// observe wraps the tracer and metrics sink already installed in cfg (by
// obsv.Metrics.Install).
func (l *layers) observe(cfg *core.Config) {
	if l == nil {
		return
	}
	cfg.Tracer = &timedTracer{inner: cfg.Tracer, agg: &l.record}
	cfg.Metrics = &timedSink{inner: cfg.Metrics, agg: &l.charge}
}

type timedTracer struct {
	inner core.Tracer
	agg   *callAgg
}

func (t *timedTracer) Record(node int, at core.Instr, kind uint8, method string, aux int64) {
	start, timed := t.agg.start()
	t.inner.Record(node, at, kind, method, aux)
	t.agg.stop(start, timed)
}

type timedSink struct {
	inner core.MetricsSink
	agg   *callAgg
}

func (t *timedSink) ObserveCharge(node int, start core.Instr, method string, op uint8, cost int64) {
	t0, timed := t.agg.start()
	t.inner.ObserveCharge(node, start, method, op, cost)
	t.agg.stop(t0, timed)
}

// span is one timed region of a rep, kept in memory and written out when
// the benchmark ends.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the enclosing span; -1 at the root
}

// recorder records nested spans, timed from t0.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

// do runs fn inside a span and returns the span's duration.
func (r *recorder) do(name string, fn func()) time.Duration {
	parent := -1
	if len(r.open) > 0 {
		parent = r.open[len(r.open)-1]
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{Name: name, StartNs: now().Sub(r.t0).Nanoseconds(), Parent: parent})
	r.open = append(r.open, i)
	fn()
	r.open = r.open[:len(r.open)-1]
	r.spans[i].EndNs = now().Sub(r.t0).Nanoseconds()
	return time.Duration(r.spans[i].EndNs - r.spans[i].StartNs)
}
