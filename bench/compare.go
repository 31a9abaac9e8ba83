package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// resultsFile accumulates bench runs for compare: each run appends one
// value per metric, that run's median. Alternating runs of two commits into
// A.json and B.json gives compare its pairs.
type resultsFile struct {
	Host      hostInfo    `json:"host"`
	Seed      int64       `json:"seed"`
	Trace     bool        `json:"trace"`
	Workloads []runRecord `json:"workloads"`
}

type runRecord struct {
	Name        string         `json:"name"`
	Fingerprint string         `json:"fingerprint"`
	Attempted   int            `json:"attempted"`
	Failed      int            `json:"failed"`
	Metrics     []metricRecord `json:"metrics"`
}

type metricRecord struct {
	Name   string    `json:"name"`
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendResults adds this run's medians to path, creating it if needed. A
// file holds runs of one seed and one set only.
func appendResults(path string, o options, sums []*summary, defs []metricDef) error {
	rf, err := loadResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		rf = &resultsFile{Seed: o.seed, Trace: o.trace, Host: hostInfo{
			NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			CPU: cpuModel(), OSArch: runtime.GOOS + "/" + runtime.GOARCH}}
	case err != nil:
		return err
	case rf.Seed != o.seed || rf.Trace != o.trace:
		return fmt.Errorf("%s holds seed %d trace=%v; this run is seed %d trace=%v", path, rf.Seed, rf.Trace, o.seed, o.trace)
	}
	for _, s := range sums {
		i := slices.IndexFunc(rf.Workloads, func(r runRecord) bool { return r.Name == s.w.name })
		if i < 0 {
			rf.Workloads = append(rf.Workloads, runRecord{Name: s.w.name, Fingerprint: s.fingerprint})
			i = len(rf.Workloads) - 1
		}
		rec := &rf.Workloads[i]
		rec.Attempted += s.attempted
		rec.Failed += s.failed
		for _, d := range defs {
			xs := s.vals[d.name]
			if len(xs) == 0 {
				continue
			}
			j := slices.IndexFunc(rec.Metrics, func(m metricRecord) bool { return m.Name == d.name })
			if j < 0 {
				rec.Metrics = append(rec.Metrics, metricRecord{Name: d.name, Unit: d.unit})
				j = len(rec.Metrics) - 1
			}
			rec.Metrics[j].Values = append(rec.Metrics[j].Values, median(xs))
		}
	}
	return writeJSON(path, rf)
}

// verdict is compare's judgement of one metric on one workload, A the
// parent and B the change.
type verdict struct {
	medA, iqrA, medB, iqrB float64
	// change is B's median relative to A's, signed so that > 0 is worse.
	change      float64
	wins, pairs int
	call        string
}

// judgeMetric applies the benchmark's rules. Runs pair up by index, so A
// and B should be built by alternating runs of the two commits.
//   - unresolved: either side's spread (IQR / median) exceeds the bound,
//     unless every B run is better than every A run;
//   - worse: B's median is worse than A's by more than the bound;
//   - better: at least 10 pairs, B wins at least 9 in 10 of them (ties
//     count for neither), and the medians differ by more than A's IQR;
//   - unchanged: anything else.
func judgeMetric(a, b []float64, m specMetric) verdict {
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	v := verdict{medA: median(a), medB: median(b)}
	q1, q3 := quartiles(a)
	v.iqrA = q3 - q1
	q1, q3 = quartiles(b)
	v.iqrB = q3 - q1
	if v.medA != 0 {
		v.change = sign * (v.medB - v.medA) / v.medA
	}
	v.pairs = min(len(a), len(b))
	for i := 0; i < v.pairs; i++ {
		if sign*(b[i]-a[i]) < 0 {
			v.wins++
		}
	}
	worstB := slices.Max(b)
	bestA := slices.Min(a)
	if sign < 0 {
		worstB, bestA = slices.Min(b), slices.Max(a)
	}
	allBetter := sign*(worstB-bestA) < 0
	spread := max(relSpread(v.iqrA, v.medA), relSpread(v.iqrB, v.medB))
	gain := v.change < 0 && v.pairs >= 10 && v.wins*10 >= 9*v.pairs && math.Abs(v.medB-v.medA) > v.iqrA
	switch {
	case spread > m.Bound && !allBetter:
		v.call = "unresolved"
	case v.change > m.Bound:
		v.call = "worse"
	case gain:
		v.call = "better"
	default:
		v.call = "unchanged"
	}
	return v
}

func relSpread(iqr, med float64) float64 {
	if med == 0 {
		return 0
	}
	return iqr / math.Abs(med)
}

// compareMain prints, per workload and metric, both medians and IQRs and a
// verdict under BENCHMARK.json's bounds. Metrics without a bound (the
// per-layer ones) are shown without a verdict.
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return errors.New("usage: bench compare A.json B.json")
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	a, err := loadResults(args[0])
	if err != nil {
		return err
	}
	b, err := loadResults(args[1])
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Trace != b.Trace {
		fmt.Fprintf(w, "warning: A is seed %d trace=%v, B is seed %d trace=%v\n", a.Seed, a.Trace, b.Seed, b.Trace)
	}
	fmt.Fprintf(w, "A: %s  %s  nproc %d\nB: %s  %s  nproc %d\n",
		a.Host.GoVersion, a.Host.CPU, a.Host.NProc, b.Host.GoVersion, b.Host.CPU, b.Host.NProc)
	for _, ra := range a.Workloads {
		i := slices.IndexFunc(b.Workloads, func(r runRecord) bool { return r.Name == ra.Name })
		if i < 0 {
			fmt.Fprintf(w, "\n== %s: only in A\n", ra.Name)
			continue
		}
		rb := b.Workloads[i]
		fmt.Fprintf(w, "\n== %s\n", ra.Name)
		fa, fb := ratio(int64(ra.Failed), int64(ra.Attempted)), ratio(int64(rb.Failed), int64(rb.Attempted))
		call := "unchanged"
		if fb > fa {
			call = "worse"
		}
		fmt.Fprintf(w, "   %-26s %-9s %12.4g %12s %12.4g %12s %9s %7s  %s\n", "fail_frac", "ratio", fa, "", fb, "", "", "", call)
		if ra.Fingerprint != rb.Fingerprint {
			fmt.Fprintf(w, "   fingerprint differs: %s vs %s (simulated results moved)\n", ra.Fingerprint, rb.Fingerprint)
		}
		fmt.Fprintf(w, "   %-26s %-9s %12s %12s %12s %12s %9s %7s  %s\n",
			"metric", "unit", "A median", "A IQR", "B median", "B IQR", "change", "pairs", "verdict")
		for _, ma := range ra.Metrics {
			j := slices.IndexFunc(rb.Metrics, func(m metricRecord) bool { return m.Name == ma.Name })
			if j < 0 || len(ma.Values) == 0 || len(rb.Metrics[j].Values) == 0 {
				continue
			}
			m := specMetric{Name: ma.Name, Unit: ma.Unit, Better: "lower"}
			bounded := false
			if k := slices.IndexFunc(sp.EndToEnd, func(s specMetric) bool { return s.Name == ma.Name }); k >= 0 && !a.Trace {
				m, bounded = sp.EndToEnd[k], true
			}
			v := judgeMetric(ma.Values, rb.Metrics[j].Values, m)
			if !bounded {
				v.call = "-"
			}
			fmt.Fprintf(w, "   %-26s %-9s %12.4g %12.4g %12.4g %12.4g %+8.1f%% %3d/%-3d  %s\n",
				ma.Name, ma.Unit, v.medA, v.iqrA, v.medB, v.iqrB, 100*v.change, v.wins, v.pairs, v.call)
		}
	}
	return nil
}
