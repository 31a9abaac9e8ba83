package mdforce

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
	policy "repro/internal/migrate"
)

func cellInstance() *Instance {
	return Generate(Params{
		Atoms: 1500, Clusters: 32, Box: 48, Cutoff: 2.4,
		Nodes: 8, Scatter: 0.1, Seed: 42,
	})
}

const cellIters = 3

// TestCellsMatchNativeStatic: the fine-grained kernel reproduces the
// native forces under both static placements, hybrid and parallel-only.
func TestCellsMatchNativeStatic(t *testing.T) {
	inst := cellInstance()
	want := Native(inst, cellIters)
	for _, spatial := range []bool{false, true} {
		for _, cfg := range []core.Config{core.DefaultHybrid(), core.ParallelOnly()} {
			r := RunCells(machine.CM5(), cfg, inst, cellIters, CellAssignment(inst, spatial))
			if err := MaxRelError(r.Forces, want); err > 1e-9 {
				t.Fatalf("spatial=%v hybrid=%v: force error %g", spatial, cfg.Hybrid, err)
			}
			if r.Stats.MigratesOut != 0 {
				t.Fatalf("static run migrated %d objects", r.Stats.MigratesOut)
			}
		}
	}
}

// TestCellsMatchNativeWithMigration: with the adaptive policy enabled the
// forces are unchanged, objects actually move, and locality improves over
// the same static placement.
func TestCellsMatchNativeWithMigration(t *testing.T) {
	inst := cellInstance()
	want := Native(inst, cellIters)
	assign := CellAssignment(inst, false)

	static := RunCells(machine.CM5(), core.DefaultHybrid(), inst, cellIters, assign)

	cfg := core.DefaultHybrid()
	cfg.Migration = policy.DefaultThreshold()
	adaptive := RunCells(machine.CM5(), cfg, inst, cellIters, assign)

	if err := MaxRelError(adaptive.Forces, want); err > 1e-9 {
		t.Fatalf("adaptive force error %g", err)
	}
	if adaptive.Stats.MigratesOut == 0 {
		t.Fatal("adaptive run migrated nothing")
	}
	if adaptive.Stats.MigratesOut != adaptive.Stats.MigratesIn {
		t.Fatalf("migrations out %d != in %d",
			adaptive.Stats.MigratesOut, adaptive.Stats.MigratesIn)
	}
	if adaptive.LocalFraction <= static.LocalFraction {
		t.Fatalf("adaptive locality %.3f did not beat static %.3f",
			adaptive.LocalFraction, static.LocalFraction)
	}
	t.Logf("static:   %.4fs local=%.3f msgs=%d", static.Seconds, static.LocalFraction, static.Messages)
	t.Logf("adaptive: %.4fs local=%.3f msgs=%d moves=%d hops=%d parks=%d",
		adaptive.Seconds, adaptive.LocalFraction, adaptive.Messages,
		adaptive.Stats.MigratesOut, adaptive.Stats.ForwardHops,
		adaptive.Stats.MigrateParks)
}

// TestCellsDeterministic: identical configurations give bit-identical runs.
func TestCellsDeterministic(t *testing.T) {
	inst := cellInstance()
	assign := CellAssignment(inst, false)
	mk := func() Result {
		cfg := core.DefaultHybrid()
		cfg.Migration = policy.DefaultThreshold()
		return RunCells(machine.CM5(), cfg, inst, cellIters, assign)
	}
	a, b := mk(), mk()
	if a.Seconds != b.Seconds || a.Messages != b.Messages || a.Stats != b.Stats {
		t.Fatalf("nondeterministic: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.Forces {
		if a.Forces[i] != b.Forces[i] {
			t.Fatalf("forces differ at atom %d", i)
		}
	}
}
