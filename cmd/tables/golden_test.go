package main

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// captureTables runs the given tables at small scale with the current adorn
// hook and worker count, and returns everything they rendered, with the
// blank line main prints after each table.
func captureTables(t *testing.T, tables []func(string, int64)) string {
	t.Helper()
	old := out
	var buf bytes.Buffer
	out = &buf
	defer func() { out = old }()
	for _, fn := range tables {
		fn("small", 1995)
		fmt.Fprintln(out)
	}
	return buf.String()
}

// TestTablesGolden: the plain reference run (no adorn hook, default engine,
// -j 1) must equal the pinned capture in testdata/small.txt byte for byte,
// so a change that moves any simulated number fails here. A change that
// moves numbers on purpose regenerates the file with
//
//	go run ./cmd/tables -scale small -j 1 > cmd/tables/testdata/small.txt
//
// and the diff is the review record. Every variant below must then be
// byte-identical to the plain run. No variant may move a simulated number,
// so none may move a byte:
//
//   - obsv: the observability layer installed on every config. Observation
//     hooks add no virtual charges, and each registry's attribution must sum
//     to its clocks.
//   - checkdecls: the runtime declaration sanitizer armed. Its checks charge
//     no virtual time, and running every kernel under it proves every
//     hand-declared method property consistent with what the bodies did.
//   - engine-parallel: the sharded parallel engine at 4 shards. The total
//     event order (time, context, sequence) is engine-independent and every
//     cross-shard side effect commits in that order. Configurations the
//     engine declines (migration policies, reliable over fat-tree) fall back
//     to serial dispatch inside the same run, so the gating is covered too.
//   - workers-8: the experiment runner at -j 8. Each cell is an isolated
//     deterministic simulation and collection is submission-ordered.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every table once per variant")
	}
	tables := []func(string, int64){table2, table3, table4, table5, table6, table7, table8, table9, table10}

	adorn = nil
	oldWorkers := workers
	defer func() { workers = oldWorkers }()
	workers = 1
	plain := captureTables(t, tables)
	workers = oldWorkers
	pinned, err := os.ReadFile("testdata/small.txt")
	if err != nil {
		t.Fatal(err)
	}
	if plain != string(pinned) {
		t.Fatalf("tables differ from testdata/small.txt:\n--- pinned ---\n%s\n--- plain ---\n%s", pinned, plain)
	}

	// One fresh registry per configuration: tables 4 and 6 construct configs
	// from parallel worker goroutines, and a Metrics instance is single-run.
	var mu sync.Mutex
	var registries []*obsv.Metrics

	variants := []struct {
		name  string
		apply func() (restore func())
		check func(t *testing.T)
	}{
		{name: "obsv", apply: func() func() {
			adorn = func(cfg core.Config) core.Config {
				m := obsv.New()
				m.Install(&cfg)
				mu.Lock()
				registries = append(registries, m)
				mu.Unlock()
				return cfg
			}
			return func() { adorn = nil }
		}, check: func(t *testing.T) {
			if len(registries) == 0 {
				t.Fatal("adorn hook never ran — a table builds configs outside it")
			}
			for i, m := range registries {
				if err := m.CheckAttribution(); err != nil {
					t.Fatalf("registry %d: %v", i, err)
				}
			}
		}},
		{name: "checkdecls", apply: func() func() {
			adorn = func(cfg core.Config) core.Config {
				cfg.CheckDecls = true
				return cfg
			}
			return func() { adorn = nil }
		}},
		{name: "engine-parallel", apply: func() func() {
			oldEng := sim.SetDefaultEngine(sim.EngineParallel)
			oldShards := sim.SetDefaultShards(4)
			return func() {
				sim.SetDefaultEngine(oldEng)
				sim.SetDefaultShards(oldShards)
			}
		}},
		{name: "workers-8", apply: func() func() {
			workers = 8
			return func() { workers = oldWorkers }
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			restore := v.apply()
			defer restore()
			got := captureTables(t, tables)
			if got != plain {
				t.Fatalf("tables differ under %s:\n--- plain ---\n%s\n--- %s ---\n%s", v.name, plain, v.name, got)
			}
			if v.check != nil {
				v.check(t)
			}
		})
	}
}
