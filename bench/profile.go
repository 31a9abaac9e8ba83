package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// selfGroups assign a sampled function to a layer by the prefix of its
// qualified name. Functions matching none count as "other".
var selfGroups = []struct {
	layer    string
	prefixes []string
}{
	{"sim", []string{"repro/internal/sim."}},
	{"core", []string{"repro/internal/core."}},
	{"machine", []string{"repro/internal/machine."}},
	{"obsv", []string{"repro/internal/obsv."}},
	{"trace", []string{"repro/internal/trace."}},
	{"load", []string{"repro/internal/load."}},
	{"migrate", []string{"repro/internal/migrate."}},
	{"apps", []string{"repro/apps/"}},
	{"go_runtime", []string{"runtime.", "runtime/", "internal/runtime/"}},
	// The traced set's own wrappers and their clock reads.
	{"bench", []string{"main.", "time."}},
}

func selfLayer(fn string) string {
	for _, g := range selfGroups {
		for _, p := range g.prefixes {
			if strings.HasPrefix(fn, p) {
				return g.layer
			}
		}
	}
	return "other"
}

// selfTimes groups the flat samples of a CPU profile by layer, in seconds,
// keyed "self.<layer>_s". It reads the profile with `go tool pprof -top`,
// which ships with the Go toolchain.
func selfTimes(profPath string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=s",
		"-nodecount=0", "-nodefraction=0", "-edgefraction=0", profPath)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w: %s", err, stderr.Bytes())
	}
	return parseTop(out)
}

// parseTop reads the table of `pprof -top -unit=s`: after the header
// line, each row is "flat flat% sum% cum cum% function [(inline)]".
func parseTop(out []byte) (map[string]float64, error) {
	self := map[string]float64{"self.other_s": 0}
	for _, g := range selfGroups {
		self["self."+g.layer+"_s"] = 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	header := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof -top: unexpected row %q", sc.Text())
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "s"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof -top: row %q: %w", sc.Text(), err)
		}
		self["self."+selfLayer(f[5])+"_s"] += flat
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	return self, sc.Err()
}
