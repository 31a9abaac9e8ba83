package mdforce_test

import (
	"testing"

	"repro/apps/mdforce"
	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/machine"
	policy "repro/internal/migrate"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// TestAttributionMatchesRun: the observability layer's cycle attribution
// must reproduce the kernel's own reported time exactly.
func TestAttributionMatchesRun(t *testing.T) {
	p := mdforce.DefaultParams()
	p.Atoms, p.Clusters, p.Box, p.Nodes = 600, 27, 18, 8
	p.Spatial = true
	inst := mdforce.Generate(p)
	m := obsv.New()
	cfg := core.DefaultHybrid()
	m.Install(&cfg)
	mdl := machine.CM5()
	r := mdforce.Run(mdl, cfg, inst)
	if err := m.CheckAttribution(); err != nil {
		t.Fatal(err)
	}
	if got := mdl.Seconds(instr.Instr(m.MaxClock())); got != r.Seconds {
		t.Fatalf("attributed clock %.9fs != run %.9fs", got, r.Seconds)
	}
}

// TestCellsAttributionMatchesRun: cycle attribution must stay exact through
// object migration — the one protocol where bodies forward mid-flight —
// and the migration instants must land in the registry.
func TestCellsAttributionMatchesRun(t *testing.T) {
	p := mdforce.DefaultCellParams()
	p.Atoms, p.Clusters, p.Box, p.Nodes = 600, 27, 18, 8
	const iters = 2
	inst := mdforce.Generate(p)
	assign := mdforce.CellAssignment(inst, false)

	m := obsv.New()
	cfg := core.DefaultHybrid()
	cfg.Migration = policy.DefaultThreshold()
	m.Install(&cfg)
	mdl := machine.CM5()
	r := mdforce.RunCells(mdl, cfg, inst, iters, assign)
	if err := m.CheckAttribution(); err != nil {
		t.Fatal(err)
	}
	if got := mdl.Seconds(instr.Instr(m.MaxClock())); got != r.Seconds {
		t.Fatalf("attributed clock %.9fs != run %.9fs", got, r.Seconds)
	}
	if r.Stats.MigratesOut > 0 && m.Count(trace.KMigrateStart) == 0 {
		t.Fatalf("%d objects migrated but no KMigrateStart reached the registry", r.Stats.MigratesOut)
	}
}
