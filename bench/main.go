// Command bench is the repository's host-side benchmark: the host wall
// clock, CPU and memory the simulator spends on six workloads, end to end
// and layer by layer. Simulated (virtual-time) results are its correctness
// check, never its measurement: every rep verifies its output against the
// repo's own oracles and checks a fingerprint of the app's Result.
//
// Usage, from the repository root (bench/run.sh builds and runs it):
//
//	bench [-workload NAME|all] [-seed N] [-reps N | -seconds S] [-trace] [-out FILE]
//	bench compare A.json B.json
//
// Each rep runs in a fresh child process (the binary re-executes itself
// with -child). The end-to-end set runs with no wrappers and no profiler;
// -trace runs the traced set instead, which wraps the layers' public
// interfaces, profiles each traced child and writes its spans to
// bench/out/trace.json. The last line of standard output is one JSON
// object with the metrics BENCHMARK.json lists for the set that ran. See
// bench/README.md.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// childTimeout bounds one rep, so that a hung simulation fails the run
// instead of stalling it.
const childTimeout = 150 * time.Second

// minTimedReps is the fewest reps per workload under -seconds: enough for a
// median. The traced set needs only one traced/untraced pair.
const (
	minTimedReps      = 3
	minTimedTraceReps = 1
)

//go:embed fingerprints.json
var pinnedJSON []byte

// pins are the expected Result fingerprints at one seed.
type pins struct {
	Seed         int64             `json:"seed"`
	Fingerprints map[string]string `json:"fingerprints"`
}

// pin returns the fingerprint w must produce at seed, "" when none is
// pinned. Unseeded workloads produce the same Result on every seed.
func (p *pins) pin(w *workload, seed int64) string {
	if w.seeded && seed != p.Seed {
		return ""
	}
	return p.Fingerprints[w.name]
}

type options struct {
	workload string
	seed     int64
	reps     int
	seconds  float64
	trace    bool
	out      string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := compareMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			os.Exit(2)
		}
		return
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	fs.StringVar(&o.workload, "workload", "all", "workload to run, or all")
	fs.Int64Var(&o.seed, "seed", 1995, "workload seed (7 is held out for checking claims)")
	fs.IntVar(&o.reps, "reps", 5, "reps per workload")
	fs.Float64Var(&o.seconds, "seconds", 0, "if > 0, rep each workload until this many host seconds are spent (at least 3 reps; 1 with -trace) instead of -reps")
	fs.BoolVar(&o.trace, "trace", false, "run the traced set: per-layer metrics, CPU profiles and bench/out/trace.json")
	fs.StringVar(&o.out, "out", "", "append this run's medians to a results FILE (JSON) for compare")
	child := fs.Bool("child", false, "internal: run one rep in this process")
	mode := fs.String("mode", "full", "internal, with -child: full, setup or probe")
	prof := fs.String("profile", "", "internal, with -child: write a CPU profile of the call here")
	fs.Parse(joinBoolValues(os.Args[1:], "trace"))
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %q\n", fs.Args())
		os.Exit(2)
	}

	var err error
	if *child {
		err = childMain(o.workload, *mode, o.seed, o.trace, *prof)
	} else {
		err = benchMain(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// joinBoolValues rewrites "-name 0|1|true|false" as "-name=value". A
// boolean flag otherwise ends at its name and leaves the value as a
// positional argument, and callers pass "--trace 0".
func joinBoolValues(args []string, name string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// bench is the parent side: it runs the reps as child processes.
type bench struct {
	options
	exe    string
	outDir string
	pins   *pins
	t0     time.Time
	spans  traceFile
}

func benchMain(o options, stdout io.Writer) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var ws []*workload
	if o.workload == "all" {
		ws = workloads
	} else if w := workloadByName(o.workload); w != nil {
		ws = []*workload{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 && o.reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	b := &bench{options: o, exe: exe, outDir: filepath.Join(root, "bench", "out"), t0: now(),
		spans: traceFile{Seed: o.seed, Spans: []traceSpan{}, Calls: []traceCalls{}}}
	if err := json.Unmarshal(pinnedJSON, &b.pins); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	if o.trace {
		if err := os.MkdirAll(b.outDir, 0o755); err != nil {
			return err
		}
	}

	sums := make([]*summary, len(ws))
	for i, w := range ws {
		sums[i] = newSummary(w)
	}
	// Rep-major order: every workload runs its rep r before any runs r+1,
	// and the order rotates each rep, so slow drift in the host spreads
	// over all workloads alike.
	for r := 0; ; r++ {
		ran := false
		for i := range sums {
			s := sums[(i+r)%len(sums)]
			if !b.wantsRep(s) {
				continue
			}
			ran = true
			start := now()
			if err := b.rep(s, r); err != nil {
				return err
			}
			d := now().Sub(start).Seconds()
			s.reps++
			s.spent += d
			s.last = d
		}
		if !ran {
			break
		}
	}

	defs, listed := e2eMetrics, sp.EndToEnd
	if o.trace {
		defs, listed = layerMetrics, sp.PerLayer
	}
	fmt.Fprintf(stdout, "host: nproc %d  GOMAXPROCS %d  %s  %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	for _, s := range sums {
		if o.trace {
			s.finishTrace()
		}
		s.printTable(stdout, defs, o.seed)
	}
	if o.trace {
		path := filepath.Join(b.outDir, "trace.json")
		if err := writeJSON(path, b.spans); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nspans: %s\n", path)
	}
	if o.out != "" {
		if err := appendResults(o.out, o, sums, defs); err != nil {
			return err
		}
	}
	line, err := buildLine(sums, listed)
	if err != nil {
		return err
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", enc)
	return nil
}

func (b *bench) wantsRep(s *summary) bool {
	if b.seconds <= 0 {
		return s.reps < b.reps
	}
	least := minTimedReps
	if b.trace {
		least = minTimedTraceReps
	}
	// Start another rep only if one more of the last one's length fits.
	return s.reps < least || s.spent+s.last <= b.seconds
}

// rep runs rep r of one workload. In the end-to-end set that is a setup
// child and a full child, bracketed by host-speed probes (the probe after
// one rep is the probe before the next); in the traced set, a traced and
// an untraced full child, in alternating order.
func (b *bench) rep(s *summary, r int) error {
	if !b.trace {
		if s.probe == 0 {
			p, err := b.probe()
			if err != nil {
				return err
			}
			s.probe = p
		}
		// A set-up of a few milliseconds is one noisy sample, so cheap
		// set-ups run up to three times per rep.
		var setups []repResult
		for spent := 0.0; len(setups) < 3 && (len(setups) == 0 || spent < 0.2); {
			setup, _, err := b.child(s.w, "setup", "")
			if err != nil {
				return fmt.Errorf("%s setup: %w", s.w.name, err)
			}
			setups = append(setups, setup)
			spent += setup.WallS
		}
		res, rssKB, runErr := b.child(s.w, "full", "")
		after, err := b.probe()
		if err != nil {
			return err
		}
		probeS := (s.probe + after) / 2
		s.probe = after
		for _, setup := range setups {
			s.addSetup(setup, probeS)
		}
		if b.judge(s, r, res, runErr) {
			s.addFull(res, rssKB, probeS)
		}
		return nil
	}
	for i := 0; i < 2; i++ {
		if traced := (i+r)%2 == 0; !traced {
			res, _, err := b.child(s.w, "full", "")
			if b.judge(s, r, res, err) {
				s.addUntraced(res)
			}
			continue
		}
		prof := filepath.Join(b.outDir, fmt.Sprintf("%s-rep%d.pprof", s.w.name, r))
		launched := now().Sub(b.t0).Nanoseconds()
		res, _, err := b.child(s.w, "full", prof)
		if !b.judge(s, r, res, err) {
			continue
		}
		self, err := selfTimes(prof)
		if err != nil {
			return err
		}
		s.addTraced(res, self)
		b.spans.add(s.w.name, r, launched, res)
	}
	return nil
}

// judge counts a full rep, prints why it failed if it did, and reports
// whether its measurements count.
func (b *bench) judge(s *summary, r int, res repResult, runErr error) bool {
	if runErr != nil {
		res = repResult{Err: runErr.Error()}
	}
	why := s.judge(res, b.pins.pin(s.w, b.seed))
	if why != "" {
		fmt.Fprintf(os.Stderr, "FAIL %s rep %d: %s\n", s.w.name, r, why)
	}
	return why == ""
}

// probe times the host-speed probe in a fresh process.
func (b *bench) probe() (float64, error) {
	res, _, err := b.child(nil, "probe", "")
	if err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	return res.WallS, nil
}

// child runs one rep in a fresh process and returns its result and peak
// RSS in KiB. traced reps (prof != "") run with the layer wrappers and
// write a CPU profile to prof.
func (b *bench) child(w *workload, mode, prof string) (repResult, int64, error) {
	name := "probe"
	if w != nil {
		name = w.name
	}
	args := []string{"-child", "-workload", name, "-mode", mode, "-seed", strconv.FormatInt(b.seed, 10)}
	if prof != "" {
		args = append(args, "-trace", "-profile", prof)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, b.exe, args...)
	cmd.Env = childEnv()
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := now()
	err := cmd.Run()
	fmt.Fprintf(os.Stderr, "%-16s %-5s traced=%-5v %7.3f s\n", name, mode, prof != "", now().Sub(start).Seconds())
	if err != nil {
		return repResult{}, 0, fmt.Errorf("child: %w", err)
	}
	var res repResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return repResult{}, 0, fmt.Errorf("child output: %w", err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return repResult{}, 0, errors.New("child: no rusage")
	}
	return res, ru.Maxrss, nil
}

// childEnv is this process's environment without the Go runtime knobs
// that would change what a rep measures: every child runs at Go's
// defaults, with GOMAXPROCS equal to the CPU count.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		switch k, _, _ := strings.Cut(kv, "="); k {
		case "GOGC", "GOMEMLIMIT", "GODEBUG", "GOMAXPROCS":
			continue
		}
		env = append(env, kv)
	}
	return env
}

// traceFile is bench/out/trace.json: every traced rep's spans, with times
// in ns since the bench started, and its per-call aggregates.
type traceFile struct {
	Seed  int64        `json:"seed"`
	Spans []traceSpan  `json:"spans"`
	Calls []traceCalls `json:"calls"`
}

type traceSpan struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	span
	// SelfNs is the span's duration minus its children's.
	SelfNs int64 `json:"self_ns"`
}

type traceCalls struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	callAgg
}

// add appends one rep's spans, shifted by when its child was launched.
// Parent indices are rebased to the file's span list.
func (t *traceFile) add(name string, rep int, launchedNs int64, res repResult) {
	base := len(t.Spans)
	for _, sp := range res.Spans {
		sp.StartNs += launchedNs
		sp.EndNs += launchedNs
		if sp.Parent >= 0 {
			sp.Parent += base
		}
		t.Spans = append(t.Spans, traceSpan{Workload: name, Rep: rep, span: sp, SelfNs: sp.EndNs - sp.StartNs})
	}
	for _, sp := range t.Spans[base:] {
		if sp.Parent >= 0 {
			t.Spans[sp.Parent].SelfNs -= sp.EndNs - sp.StartNs
		}
	}
	for _, c := range res.Calls {
		t.Calls = append(t.Calls, traceCalls{Workload: name, Rep: rep, callAgg: c})
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
