package migrate_test

import (
	"testing"

	"repro/apps/mdforce"
	migapp "repro/apps/migrate"
	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/machine"
	policy "repro/internal/migrate"
	"repro/internal/obsv"
	"repro/internal/trace"
)

// TestAttributionMatchesRun: cycle attribution must stay exact through
// object migration — the one protocol where bodies forward mid-flight —
// and the migration instants must land in the registry.
func TestAttributionMatchesRun(t *testing.T) {
	p := migapp.DefaultParams()
	p.MD.Atoms, p.MD.Clusters, p.MD.Box, p.MD.Nodes = 600, 27, 18, 8
	p.Iters = 2
	inst := mdforce.Generate(p.MD)
	assign := migapp.CellAssignment(inst, false)

	m := obsv.New()
	cfg := core.DefaultHybrid()
	cfg.Migration = policy.DefaultThreshold()
	m.Install(&cfg)
	mdl := machine.CM5()
	r := migapp.Run(mdl, cfg, inst, p.Iters, assign)
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
