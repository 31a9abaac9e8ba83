package main

import (
	"encoding/json"
	"regexp"
	"slices"
	"testing"
)

// tinyRun runs one rep of w at test size in-process.
func tinyRun(t *testing.T, w *workload, lay *layers) repResult {
	t.Helper()
	res, err := measure(w, input{seed: 1995, tiny: true, lay: lay}, nil)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if res.Err != "" {
		t.Fatalf("%s: check failed: %s", w.name, res.Err)
	}
	return res
}

// TestWorkloadsTiny runs every workload at test size: the fingerprint is
// stable across reruns, traced and untraced runs agree (the layer wrappers
// are transparent), and the wrappers do see the calls of the layer each
// workload exercises.
func TestWorkloadsTiny(t *testing.T) {
	wrapped := map[string]string{
		"sor-scale":       "machine.delay",
		"sor-scale-pdes2": "machine.delay",
		"serve-open":      "migrate.onaccess",
		"serve-profile":   "obsv.charge",
	}
	fps := map[string]string{}
	for _, w := range workloads {
		first := tinyRun(t, w, nil)
		if again := tinyRun(t, w, nil); again.Fingerprint != first.Fingerprint {
			t.Errorf("%s: rerun fingerprint %s, first %s", w.name, again.Fingerprint, first.Fingerprint)
		}
		lay := newLayers()
		if traced := tinyRun(t, w, lay); traced.Fingerprint != first.Fingerprint {
			t.Errorf("%s: traced fingerprint %s, untraced %s", w.name, traced.Fingerprint, first.Fingerprint)
		}
		if name, ok := wrapped[w.name]; ok {
			i := slices.IndexFunc(lay.aggs(), func(a callAgg) bool { return a.Name == name })
			if lay.aggs()[i].Count == 0 {
				t.Errorf("%s: traced run saw no %s calls", w.name, name)
			}
		}
		if _, err := measure(w, input{seed: 1995, tiny: true, setup: true}, nil); err != nil {
			t.Errorf("%s setup: %v", w.name, err)
		}
		fps[w.name] = first.Fingerprint
	}
	// The engine and the observer never change simulated results.
	for a, b := range map[string]string{"sor-scale": "sor-scale-pdes2", "serve-open": "serve-profile"} {
		if fps[a] != fps[b] {
			t.Errorf("%s fingerprint %s, %s %s", a, fps[a], b, fps[b])
		}
	}
}

func TestWrongPinCountsFailed(t *testing.T) {
	s := newSummary(workloads[0])
	if why := s.judge(repResult{Fingerprint: "aaaa"}, "bbbb"); why == "" {
		t.Error("rep with a fingerprint other than the pinned one passed")
	}
	if why := s.judge(repResult{Fingerprint: "aaaa"}, ""); why != "" {
		t.Errorf("rep agreeing with earlier reps failed: %s", why)
	}
	if why := s.judge(repResult{Fingerprint: "cccc"}, ""); why == "" {
		t.Error("rep disagreeing with earlier reps passed")
	}
	if why := s.judge(repResult{Fingerprint: "aaaa", Err: "checksum"}, ""); why == "" {
		t.Error("rep failing its check passed")
	}
	if s.attempted != 4 || s.failed != 3 {
		t.Errorf("attempted %d failed %d, want 4 and 3", s.attempted, s.failed)
	}
}

// TestPinsCoverWorkloads checks fingerprints.json pins every workload.
func TestPinsCoverWorkloads(t *testing.T) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if p.pin(w, p.Seed) == "" {
			t.Errorf("%s: no pinned fingerprint", w.name)
		}
		if got := p.pin(w, p.Seed+1) != ""; got == w.seeded {
			t.Errorf("%s: pin applies on another seed = %v, want %v", w.name, got, !w.seeded)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	for _, defs := range [][]metricDef{e2eMetrics, layerMetrics} {
		seen := map[string]bool{}
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || len(d.name) > 64 || !unitRE.MatchString(d.unit) {
				t.Errorf("bad metric name or unit: %q %q", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric %s listed twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, g := range selfGroups {
		if _, ok := findDef(layerMetrics, "self."+g.layer+"_s"); !ok {
			t.Errorf("profile group %s has no metric", g.layer)
		}
	}
}

// TestSpecMetricsEmitted feeds real tiny reps through the parent's
// bookkeeping and checks the result line carries every metric
// BENCHMARK.json lists, for both sets.
func TestSpecMetricsEmitted(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the bench has %d", len(sp.Workloads), len(workloads))
	}
	w := workloadByName("sor-heap")
	setup, err := measure(w, input{tiny: true, setup: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := tinyRun(t, w, nil)
	traced := tinyRun(t, w, newLayers())

	e2e := newSummary(w)
	e2e.addSetup(setup, probeRefS)
	e2e.addFull(full, 1024, probeRefS)
	if _, err := buildLine([]*summary{e2e}, sp.EndToEnd); err != nil {
		t.Error(err)
	}

	self, err := parseTop([]byte("      flat  flat%   sum%        cum   cum%\n"))
	if err != nil {
		t.Fatal(err)
	}
	tr := newSummary(w)
	tr.addTraced(traced, self)
	tr.addUntraced(full)
	tr.finishTrace()
	if _, err := buildLine([]*summary{tr}, sp.PerLayer); err != nil {
		t.Error(err)
	}
	for _, d := range layerMetrics {
		if len(tr.vals[d.name]) == 0 {
			t.Errorf("traced set emits no %s", d.name)
		}
	}
}

func TestParseTop(t *testing.T) {
	out := []byte(`File: concertbench
Type: cpu
Showing nodes accounting for 2.36s, 100% of 2.36s total
      flat  flat%   sum%        cum   cum%
     0.45s 19.07% 19.07%      0.66s 27.97%  repro/internal/sim.(*calendarQueue).pop
     0.34s 14.41% 33.47%      0.34s 14.41%  repro/internal/core.(*RT).Invoke
     0.09s  3.81% 58.90%      1.28s 54.24%  repro/apps/sor.Build.func2
     0.05s  2.12% 75.85%      0.05s  2.12%  runtime.nextFreeFast (inline)
     0.04s  1.69% 81.36%      0.04s  1.69%  internal/runtime/maps.(*Map).getWithKeySmall
     0.03s  1.27% 84.32%      0.06s  2.54%  main.(*timedNet).Delay
     0.02s  0.85% 86.02%      0.02s  0.85%  sort.Sort
         0     0% 86.02%      0.62s 26.27%  repro/internal/machine.(*FatTree).Delay
`)
	self, err := parseTop(out)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"self.sim_s": 0.45, "self.core_s": 0.34, "self.apps_s": 0.09,
		"self.go_runtime_s": 0.09, "self.bench_s": 0.03, "self.other_s": 0.02, "self.machine_s": 0}
	for k, v := range want {
		if d := self[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, self[k], v)
		}
	}
}

// TestQuartilesMatchPython pins the statistics to Python's
// statistics.quantiles(n=4), which the numbers are read against.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q3, md float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25, 5.5},
		{[]float64{3, 1, 2}, 1, 3, 2},
		{[]float64{4}, 4, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 || median(c.xs) != c.md {
			t.Errorf("%v: q1 %v q3 %v median %v, want %v %v %v", c.xs, q1, q3, median(c.xs), c.q1, c.q3, c.md)
		}
	}
}

func TestJudgeMetric(t *testing.T) {
	m := specMetric{Name: "wall_s", Better: "lower", Bound: 0.1}
	base := []float64{10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		b    []float64
		want string
	}{
		{scale(0.9), "better"},
		{scale(1.2), "worse"},
		{scale(1.01), "unchanged"},
		{[]float64{5, 15, 5, 15, 5, 15, 5, 15, 5, 15}, "unresolved"},
	} {
		if got := judgeMetric(base, c.b, m).call; got != c.want {
			t.Errorf("B %v: verdict %s, want %s", c.b, got, c.want)
		}
	}
	hi := specMetric{Name: "sim_minstr_per_s", Better: "higher", Bound: 0.1}
	if got := judgeMetric(base, scale(1.2), hi).call; got != "better" {
		t.Errorf("higher-is-better metric up 20%%: verdict %s, want better", got)
	}
}

func TestJoinBoolValues(t *testing.T) {
	got := joinBoolValues([]string{"--workload", "sor-heap", "--trace", "0", "--seed", "3", "-trace"}, "trace")
	want := []string{"--workload", "sor-heap", "--trace=0", "--seed", "3", "-trace"}
	if !slices.Equal(got, want) {
		t.Errorf("got %q, want %q", got, want)
	}
}
