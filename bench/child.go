package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
)

// repResult is what one rep measures. A child process prints it as JSON on
// its standard output; the tests get it in-process.
type repResult struct {
	// WallS is the host time of the full call: the app entry point plus,
	// for serve-profile, the observer report. Verification is excluded.
	WallS   float64 `json:"wall_s"`
	RunS    float64 `json:"run_s"`
	ReportS float64 `json:"report_s"`
	VerifyS float64 `json:"verify_s"`
	// CPUS is the process's user+sys time across the full call.
	CPUS float64 `json:"cpu_s"`
	Go   goDelta `json:"go"`

	// Err is why the output failed its check ("" when it passed).
	Err         string         `json:"err,omitempty"`
	Fingerprint string         `json:"fingerprint"`
	Busy        int64          `json:"busy_instr"`
	Stats       core.NodeStats `json:"stats"`
	Messages    int64          `json:"messages"`

	Spans []span    `json:"spans"`
	Calls []callAgg `json:"calls,omitempty"`
}

// goDelta is the Go runtime's own accounting across the full call.
type goDelta struct {
	GCCPUS     float64 `json:"gc_cpu_s"`
	AllocBytes uint64  `json:"alloc_bytes"`
	Allocs     uint64  `json:"allocs"`
	GCCycles   uint64  `json:"gc_cycles"`
	SchedP50Us float64 `json:"sched_latency_p50_us"`
}

var goSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readGo() []metrics.Sample {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func goDiff(a, b []metrics.Sample) goDelta {
	return goDelta{
		GCCPUS:     b[0].Value.Float64() - a[0].Value.Float64(),
		AllocBytes: b[1].Value.Uint64() - a[1].Value.Uint64(),
		Allocs:     b[2].Value.Uint64() - a[2].Value.Uint64(),
		GCCycles:   b[3].Value.Uint64() - a[3].Value.Uint64(),
		SchedP50Us: histP50(a[4].Value.Float64Histogram(), b[4].Value.Float64Histogram()) * 1e6,
	}
}

// histP50 is the median of the samples b has and a had not, interpolated
// linearly inside its bucket; 0 when there are none.
func histP50(a, b *metrics.Float64Histogram) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	half := float64(total) / 2
	var cum float64
	for i := range b.Counts {
		c := float64(b.Counts[i] - a.Counts[i])
		if c == 0 || cum+c < half {
			cum += c
			continue
		}
		lo, hi := b.Buckets[i], b.Buckets[i+1]
		switch {
		case math.IsInf(lo, -1):
			return hi
		case math.IsInf(hi, 1):
			return lo
		}
		return lo + (half-cum)/c*(hi-lo)
	}
	return 0
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs one rep of w. prof, when non-nil, receives a CPU profile of
// the full call. A setup rep is neither checked nor fingerprinted.
func measure(w *workload, in input, prof io.Writer) (repResult, error) {
	var res repResult
	var out output
	var reportErr, profErr error
	rec := &recorder{t0: now()}
	rec.do("rep", func() {
		g0, cpu0 := readGo(), cpuTime()
		if prof != nil {
			if profErr = pprof.StartCPUProfile(prof); profErr != nil {
				return
			}
		}
		res.WallS = rec.do("call", func() {
			res.RunS = rec.do("phase.run", func() { out = w.run(in) }).Seconds()
			if out.report != nil {
				res.ReportS = rec.do("obsv.report", func() { reportErr = out.report() }).Seconds()
			}
		}).Seconds()
		if prof != nil {
			pprof.StopCPUProfile()
		}
		res.CPUS = (cpuTime() - cpu0).Seconds()
		res.Go = goDiff(g0, readGo())
		if in.setup {
			return
		}
		res.VerifyS = rec.do("phase.verify", func() {
			err := reportErr
			if err == nil {
				err = out.check()
			}
			if err != nil {
				res.Err = err.Error()
			}
			res.Fingerprint = fingerprint(out.res)
		}).Seconds()
	})
	if profErr != nil {
		return res, fmt.Errorf("cpu profile: %w", profErr)
	}
	res.Busy = int64(out.busy)
	res.Stats = out.stats
	res.Messages = out.messages
	res.Spans = rec.spans
	if in.lay != nil {
		res.Calls = in.lay.aggs()
	}
	return res, nil
}

// childMain runs one rep in this process and prints its result: the child
// side of the fresh-process-per-rep protocol. A probe child times the
// host-speed probe instead and reports it as wall_s.
func childMain(name, mode string, seed int64, traced bool, profPath string) error {
	if mode == "probe" {
		perm := probeBuf()
		return json.NewEncoder(os.Stdout).Encode(repResult{WallS: probe(perm).Seconds()})
	}
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if mode != "full" && mode != "setup" {
		return fmt.Errorf("unknown mode %q (want full or setup)", mode)
	}
	in := input{seed: seed, setup: mode == "setup"}
	if traced {
		in.lay = newLayers()
	}
	var prof io.Writer
	var f *os.File
	if profPath != "" {
		var err error
		if f, err = os.Create(profPath); err != nil {
			return err
		}
		defer f.Close()
		prof = f
	}
	res, err := measure(w, in, prof)
	if err != nil {
		return err
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return fmt.Errorf("cpu profile: %w", err)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}
