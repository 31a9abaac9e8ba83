package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct {
	name, unit string
}

// e2eMetrics are what the end-to-end set reports: measured with no wrappers
// and no profiler. Times are in reference seconds (see probeRefS); host.*
// are the same in host seconds. The go.* counters are cheap enough to ride
// along.
var e2eMetrics = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MB"},
	{"sim_minstr_per_s", "Minstr/s"},
	{"host.probe_s", "s"},
	{"host.wall_s", "s"},
	{"host.setup_s", "s"},
	{"host.cpu_s", "s"},
	{"go.gc_cpu_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.allocs", "count"},
	{"go.gc_cycles", "count"},
}

// layerMetrics are what the traced set reports.
var layerMetrics = []metricDef{
	{"phase.run_s", "s"},
	{"phase.verify_s", "s"},
	{"obsv.report_s", "s"},
	{"machine.delay_calls", "count"},
	{"machine.delay_s", "s"},
	{"migrate.onaccess_calls", "count"},
	{"migrate.onaccess_s", "s"},
	{"migrate.tick_calls", "count"},
	{"obsv.charge_calls", "count"},
	{"obsv.charge_s", "s"},
	{"obsv.record_calls", "count"},
	{"obsv.record_s", "s"},
	{"go.gc_cpu_s", "s"},
	{"go.alloc_mb", "MB"},
	{"go.allocs", "count"},
	{"go.gc_cycles", "count"},
	{"go.sched_latency_p50_us", "us"},
	{"sim.parallelism", "ratio"},
	{"self.sim_s", "s"},
	{"self.core_s", "s"},
	{"self.machine_s", "s"},
	{"self.obsv_s", "s"},
	{"self.trace_s", "s"},
	{"self.load_s", "s"},
	{"self.migrate_s", "s"},
	{"self.apps_s", "s"},
	{"self.go_runtime_s", "s"},
	{"self.bench_s", "s"},
	{"self.other_s", "s"},
	{"core.invokes", "count"},
	{"core.stack_calls", "count"},
	{"core.heap_contexts", "count"},
	{"core.fallbacks", "count"},
	{"core.suspends", "count"},
	{"core.wrapper_runs", "count"},
	{"core.stack_frac", "ratio"},
	{"core.fallback_frac", "ratio"},
	{"sim.messages", "count"},
	{"bench.trace_overhead_frac", "ratio"},
}

// repValues derives the per-rep metrics a repResult holds as they are. The
// end-to-end set adds its scaled times and peak RSS; the traced set adds the
// profile's self times.
func repValues(r repResult) map[string]float64 {
	st := r.Stats
	v := map[string]float64{
		"phase.run_s":             r.RunS,
		"phase.verify_s":          r.VerifyS,
		"obsv.report_s":           r.ReportS,
		"go.gc_cpu_s":             r.Go.GCCPUS,
		"go.alloc_mb":             float64(r.Go.AllocBytes) / (1 << 20),
		"go.allocs":               float64(r.Go.Allocs),
		"go.gc_cycles":            float64(r.Go.GCCycles),
		"go.sched_latency_p50_us": r.Go.SchedP50Us,
		"sim.parallelism":         r.CPUS / r.WallS,
		"core.invokes":            float64(st.Invokes),
		"core.stack_calls":        float64(st.StackCalls),
		"core.heap_contexts":      float64(st.HeapInvokes),
		"core.fallbacks":          float64(st.Fallbacks),
		"core.suspends":           float64(st.Suspends),
		"core.wrapper_runs":       float64(st.WrapperRuns),
		"core.stack_frac":         ratio(st.StackCalls, st.Invokes),
		"core.fallback_frac":      ratio(st.Fallbacks, st.StackCalls),
		"sim.messages":            float64(r.Messages),
	}
	for _, c := range r.Calls {
		v[c.Name+"_calls"] = float64(c.Count)
		v[c.Name+"_s"] = c.seconds()
	}
	return v
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// median and quartiles follow Python's statistics.median and
// statistics.quantiles(n=4) (the exclusive method), so the numbers printed
// here match a reader's own analysis of the same values.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// summary accumulates one workload's reps.
type summary struct {
	w                 *workload
	attempted, failed int
	failures          []string
	// fingerprint is the first rep's; every later rep must match it.
	fingerprint string
	vals        map[string][]float64
	// untracedWall holds the untraced reps' wall_s in the traced set, the
	// base of bench.trace_overhead_frac.
	untracedWall []float64

	reps        int
	spent, last float64 // host seconds of this workload's children so far / of the last rep
	probe       float64 // the last probe's host seconds
}

func newSummary(w *workload) *summary {
	return &summary{w: w, vals: map[string][]float64{}}
}

// judge counts one full rep and reports why it failed ("" when it passed):
// its own check, the pinned fingerprint when one applies (pin == "" when
// none does), and agreement with the workload's earlier reps.
func (s *summary) judge(r repResult, pin string) string {
	s.attempted++
	why := r.Err
	switch {
	case why != "":
	case pin != "" && r.Fingerprint != pin:
		why = fmt.Sprintf("fingerprint %s, pinned %s", r.Fingerprint, pin)
	case s.fingerprint != "" && r.Fingerprint != s.fingerprint:
		why = fmt.Sprintf("fingerprint %s, earlier reps %s", r.Fingerprint, s.fingerprint)
	}
	if s.fingerprint == "" {
		s.fingerprint = r.Fingerprint
	}
	if why != "" {
		s.failed++
		s.failures = append(s.failures, why)
	}
	return why
}

// addSetup records a setup rep of the end-to-end set; probeS is the probe's
// host time around it.
func (s *summary) addSetup(r repResult, probeS float64) {
	s.vals["host.setup_s"] = append(s.vals["host.setup_s"], r.WallS)
	s.vals["setup_s"] = append(s.vals["setup_s"], r.WallS*probeRefS/probeS)
}

// addFull records a passing full rep of the end-to-end set, scaling its
// times by the probe's host time around it.
func (s *summary) addFull(r repResult, rssKB int64, probeS float64) {
	v := repValues(r)
	k := probeRefS / probeS
	v["host.probe_s"] = probeS
	v["host.wall_s"], v["host.cpu_s"] = r.WallS, r.CPUS
	v["wall_s"], v["cpu_s"] = r.WallS*k, r.CPUS*k
	v["sim_minstr_per_s"] = float64(r.Busy) / (r.WallS * k) / 1e6
	v["peak_rss_mb"] = float64(rssKB) / 1024
	s.add(e2eMetrics, v)
}

// addTraced records a passing traced rep with its profile's flat samples
// per layer; its wall_s is kept for bench.trace_overhead_frac. A layer's
// self time is its share of the samples times the call's measured CPU
// time, which is exact where the 10 ms samples are not.
func (s *summary) addTraced(r repResult, self map[string]float64) {
	v := repValues(r)
	var total float64
	for _, x := range self {
		total += x
	}
	for k, x := range self {
		v[k] = 0
		if total > 0 {
			v[k] = x / total * r.CPUS
		}
	}
	s.add(layerMetrics, v)
	s.vals["wall_s"] = append(s.vals["wall_s"], r.WallS)
}

// addUntraced records a passing untraced rep of the traced set.
func (s *summary) addUntraced(r repResult) {
	s.untracedWall = append(s.untracedWall, r.WallS)
}

func (s *summary) add(defs []metricDef, v map[string]float64) {
	for _, d := range defs {
		if x, ok := v[d.name]; ok {
			s.vals[d.name] = append(s.vals[d.name], x)
		}
	}
}

// finishTrace derives the one metric that needs both halves of the traced
// set.
func (s *summary) finishTrace() {
	if len(s.vals["wall_s"]) > 0 && len(s.untracedWall) > 0 {
		s.vals["bench.trace_overhead_frac"] = []float64{median(s.vals["wall_s"])/median(s.untracedWall) - 1}
	}
}

func (s *summary) failFrac() float64 {
	if s.attempted == 0 {
		return 0
	}
	return float64(s.failed) / float64(s.attempted)
}

// printTable writes the workload's metrics as median [q1, q3] n.
func (s *summary) printTable(w io.Writer, defs []metricDef, seed int64) {
	fmt.Fprintf(w, "\n== %s  seed %d  fingerprint %s  attempted %d  failed %d  fail_frac %.4g\n",
		s.w.name, seed, s.fingerprint, s.attempted, s.failed, s.failFrac())
	for _, why := range s.failures {
		fmt.Fprintf(w, "   FAIL: %s\n", why)
	}
	fmt.Fprintf(w, "   %-26s %-9s %14s %14s %14s %3s\n", "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range defs {
		xs := s.vals[d.name]
		if len(xs) == 0 {
			fmt.Fprintf(w, "   %-26s %-9s %14s\n", d.name, d.unit, "-")
			continue
		}
		q1, q3 := quartiles(xs)
		fmt.Fprintf(w, "   %-26s %-9s %14.6g %14.6g %14.6g %3d\n", d.name, d.unit, median(xs), q1, q3, len(xs))
	}
}

// spec is the part of BENCHMARK.json the bench reads: which metrics the
// result line carries, and the regression bounds compare applies.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// repoRoot finds the repository root from the working directory: the
// root itself or the bench directory.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..; run from the repository root")
}

// loadSpec reads BENCHMARK.json and checks it against the bench: every
// workload exists, and every metric is one this bench emits, in the same
// unit.
func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, w := range sp.Workloads {
		if workloadByName(w.Name) == nil {
			return nil, fmt.Errorf("%s: unknown workload %q", path, w.Name)
		}
	}
	for _, set := range []struct {
		listed []specMetric
		defs   []metricDef
	}{{sp.EndToEnd, e2eMetrics}, {sp.PerLayer, layerMetrics}} {
		for _, m := range set.listed {
			if d, ok := findDef(set.defs, m.Name); !ok || d.unit != m.Unit {
				return nil, fmt.Errorf("%s: metric %s (%s) is not one the bench emits in that unit", path, m.Name, m.Unit)
			}
		}
	}
	return &sp, nil
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the bench prints: the listed metrics'
// medians. Names are prefixed "<workload>." when the run covered more than
// one workload.
type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	ByName    map[string]lineMetric `json:"metrics"`
}

func buildLine(sums []*summary, listed []specMetric) (resultLine, error) {
	line := resultLine{ByName: map[string]lineMetric{}}
	for _, s := range sums {
		line.Attempted += s.attempted
		line.Failed += s.failed
		for _, m := range listed {
			xs := s.vals[m.Name]
			if len(xs) == 0 {
				return line, fmt.Errorf("%s: no passing rep measured %s", s.w.name, m.Name)
			}
			name := m.Name
			if len(sums) > 1 {
				name = s.w.name + "." + name
			}
			line.ByName[name] = lineMetric{Value: median(xs), Unit: m.Unit}
		}
	}
	line.Correct = line.Attempted > 0 && line.Failed == 0
	return line, nil
}

// hostInfo is recorded with every results file.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
	OSArch     string `json:"os_arch"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
