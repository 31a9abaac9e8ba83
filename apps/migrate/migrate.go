// Package migrate is the evaluation application for dynamic object
// migration (Table 7): apps/mdforce's MD-Force kernel laid out in
// fine-grained objects so that placement can change mid-run.
//
// Where Table 5 owns one chunk object per node (placement is fixed by
// construction), here each spatial cluster of atoms, a cell, is its own
// chunk, and the runtime is free to move chunks between nodes while the
// program runs.
// The computation iterates: each iteration every chunk clears its
// remote-coordinate cache, evaluates its pair list (fetching partner
// coordinates from other chunks on a miss), and flushes combined force
// increments back to the partners. Positions never change, so the
// communication graph is identical every iteration — exactly the
// steady-state traffic an adaptive policy can learn from.
//
// Cross-chunk pairs always use the fetch/cache/pending-increment path even
// when both chunks share a node, so the floating-point arithmetic is
// placement-invariant: any placement (and any migration history) yields the
// same forces up to message-arrival summation order, and every run is
// verified against the plain-Go reference (mdforce.Native) to a tight
// relative tolerance.
package migrate

import (
	"repro/apps/mdforce"
	"repro/internal/core"
	"repro/internal/layout"
	"repro/internal/machine"
)

// Params configures one migration-evaluation run: the MD instance plus the
// iteration count (migration pays off only when post-move iterations
// amortize the move cost).
type Params struct {
	MD    mdforce.Params
	Iters int
}

// DefaultParams packs the clusters tightly (lattice spacing comparable to
// the cluster diameter) so cluster peripheries interact across the cutoff:
// the communication graph has strong spatial affinity for ORB — and for an
// adaptive policy — to exploit, while random placement makes most
// cross-cell traffic remote.
func DefaultParams() Params {
	return Params{
		MD: mdforce.Params{Atoms: 4000, Clusters: 64, Box: 24, Cutoff: 2.4,
			Nodes: 16, Scatter: 0.05, Seed: 1995},
		Iters: 10,
	}
}

// CellAssignment places cells (clusters) on nodes: ORB over the cluster
// centers (the informed static layout) or uniformly at random (the
// uninformed one an adaptive policy must repair).
func CellAssignment(inst *mdforce.Instance, spatial bool) []int {
	if spatial {
		return layout.ORB(inst.Centers, inst.Params.Nodes)
	}
	return layout.Random(len(inst.Centers), inst.Params.Nodes, inst.Params.Seed+13)
}

// Result is one execution's measurements.
type Result struct {
	mdforce.Result
	// Placement is where each cell ended the run (node per cell index).
	Placement []int
	// MaxCellsPerNode measures final placement balance.
	MaxCellsPerNode int
}

// Run executes iters iterations of the kernel over inst, one cell per
// cluster starting on cellAssign's node, under cfg (whose Migration field
// selects the policy, nil for static).
func Run(mdl *machine.Model, cfg core.Config, inst *mdforce.Instance, iters int, cellAssign []int) Result {
	if cfg.MaxMsgWords == 0 {
		// Cells are far larger than request messages; size the limit to the
		// biggest possible migration payload.
		cfg.MaxMsgWords = 1 << 20
	}
	r, placement := mdforce.RunPlan(mdl, cfg, inst,
		mdforce.Plan{Owner: inst.Cluster, Home: cellAssign, Iters: iters})
	perNode := make([]int, inst.Params.Nodes)
	maxCells := 0
	for _, node := range placement {
		perNode[node]++
		maxCells = max(maxCells, perNode[node])
	}
	return Result{Result: r, Placement: placement, MaxCellsPerNode: maxCells}
}
