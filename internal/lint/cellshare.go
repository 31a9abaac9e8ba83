package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// CellShare checks experiment-cell isolation at internal/exp call sites.
// The exp runner's whole contract (DESIGN §9) is that cells share no
// mutable state: each cell builds its own engine, RNG and trace/metrics
// buffers, so -j 1 and -j N are byte-identical. The two bug classes that
// have broken that contract in this repo are a cell closure mutating
// something it captured (shared across all cells, racy and order-dependent)
// and a core.Config handed to parallel cells carrying a shared mutable
// handle (the Config.Network-shared-link-state bug PR 8 fixed by making
// Network a factory).
//
// At every exp.Map call site the pass analyzes the cell function literal
// and reports:
//
//   - an assignment, op-assignment, increment or append that writes through
//     a captured (free) variable — unless it is the per-slot idiom
//     `out[i] = …` indexed by the cell's own index parameter;
//   - any use of a captured *rand.Rand (recognized syntactically: a free
//     variable assigned rand.New(…) in the enclosing function) — even a
//     read advances the generator, so sharing one across cells makes every
//     cell's stream depend on scheduling;
//   - a Config composite literal or field assignment inside the cell whose
//     Tracer, Metrics or Network field is a captured identifier rather than
//     a fresh per-cell construction (call, literal or function literal).
//
// Since the PDES engine landed, the same bug class exists one level down:
// inside package sim itself, methods on *Node, *shard and *Timer execute on
// worker goroutines during a parallel window, so a write through the
// receiver's eng field (`n.eng.pending++`, `sh.eng.shards[0].now = t`) is
// engine-global state mutated from a sharded execution context — racy under
// -race and, worse, order-dependent even when atomic. The pass flags every
// such write (assignment, op-assignment, increment/decrement, append target)
// in window-phase receivers, looking through index expressions. The one
// sanctioned escape hatch is recognized: a function literal handed to an
// Ordered(...) call runs single-threaded at the barrier's ordered commit, so
// writes inside it are exempt. Reads, and mutations hidden behind method
// calls (sh.eng.wg.Done()), are outside the pass's view — the -race pdes CI
// job and the serial/parallel golden tests are the dynamic backstop.
//
// Conservatism: mutations hidden behind method calls or helper functions
// are invisible (the -race CI job and the golden -j 1/-j N tests are the
// dynamic backstop), and non-literal cell functions are skipped.
var CellShare = &Analyzer{
	Name: "cellshare",
	Doc:  "check exp.Map cell closures and engine window-phase code for shared mutable state",
	Run:  runCellShare,
}

// expPath is the experiment-runner import whose call sites are checked.
const expPath = "repro/internal/exp"

// sharedHandleFields are the Config fields that must be constructed per
// cell: each holds (or, for Network before PR 8, held) run-mutable state.
var sharedHandleFields = map[string]bool{
	"Tracer": true, "Metrics": true, "Network": true,
}

func runCellShare(pass *Pass) error {
	for _, file := range pass.Files {
		if file.Name.Name == "sim" {
			checkEngineShards(pass, file)
		}
		expName := importLocalName(file, expPath)
		if expName == "" {
			continue
		}
		randName := importLocalName(file, "math/rand", "math/rand/v2")
		coreNames := coreAliases(file)
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCellSites(pass, fd.Body, expName, randName, coreNames)
		}
	}
	return nil
}

// checkCellSites finds the exp call sites in one function and analyzes
// their cell literals.
func checkCellSites(pass *Pass, body *ast.BlockStmt, expName, randName string, coreNames map[string]bool) {
	// Free variables assigned rand.New(...) in this function: sharing one of
	// these into a cell is flagged on any use.
	randVars := map[string]bool{}
	if randName != "" {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i := range as.Lhs {
				id, ok := as.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == randName && sel.Sel.Name == "New" {
							randVars[id.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		if !ok || pkg.Name != expName || sel.Sel.Name != "Map" || len(call.Args) == 0 {
			return true
		}
		if lit, ok := call.Args[len(call.Args)-1].(*ast.FuncLit); ok {
			checkCellBody(pass, lit, cellIndexParam(lit), randVars, coreNames)
		}
		return true
	})
}

// cellIndexParam returns the name of the cell function's index parameter
// (the first parameter of an exp.Map cell).
func cellIndexParam(lit *ast.FuncLit) string {
	if lit.Type.Params == nil || len(lit.Type.Params.List) == 0 {
		return ""
	}
	f := lit.Type.Params.List[0]
	if len(f.Names) == 0 {
		return ""
	}
	return f.Names[0].Name
}

// checkCellBody analyzes one cell function literal.
func checkCellBody(pass *Pass, lit *ast.FuncLit, idxName string, randVars map[string]bool, coreNames map[string]bool) {
	local := cellLocals(lit)
	free := func(name string) bool {
		return name != "" && name != "_" && !local[name]
	}
	reportedRand := map[string]bool{}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				checkCellWrite(pass, lhs, idxName, free)
			}
			// cfg.Network = captured: a shared handle stored into a
			// cell-local Config — the Config is fresh but the handle is not.
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					sel, ok := n.Lhs[i].(*ast.SelectorExpr)
					if !ok || !sharedHandleFields[sel.Sel.Name] || free(rootOf(keyOf(sel))) {
						continue // a free LHS root already got the mutate report
					}
					if vk := keyOf(n.Rhs[i]); vk != "" && free(rootOf(vk)) {
						pass.Reportf(n.Rhs[i].Pos(), "unsound",
							"Config.%s set to captured %s inside a parallel cell: the handle is shared across cells; construct a fresh one per cell (factory call or literal)", sel.Sel.Name, vk)
					}
				}
			}
		case *ast.IncDecStmt:
			checkCellWrite(pass, n.X, idxName, free)
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "append" && len(n.Args) > 0 {
				dst := keyOf(n.Args[0])
				if free(rootOf(dst)) {
					pass.Reportf(n.Pos(), "unsound",
						"cell appends to captured %s: the slice is shared across parallel cells (racy, order-dependent); return per-cell results instead", dst)
				}
			}
		case *ast.CompositeLit:
			if isConfigType(n.Type, coreNames) {
				for _, el := range n.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					k, ok := kv.Key.(*ast.Ident)
					if !ok || !sharedHandleFields[k.Name] {
						continue
					}
					if vk := keyOf(kv.Value); vk != "" && free(rootOf(vk)) {
						pass.Reportf(kv.Value.Pos(), "unsound",
							"Config.%s set to captured %s inside a parallel cell: the handle is shared across cells; construct a fresh one per cell (factory call or literal)", k.Name, vk)
					}
				}
			}
		case *ast.Ident:
			if randVars[n.Name] && free(n.Name) && !reportedRand[n.Name] {
				reportedRand[n.Name] = true
				pass.Reportf(n.Pos(), "unsound",
					"cell uses captured *rand.Rand %s: even reads advance the shared generator, so every cell's stream depends on worker scheduling; give each cell rand.New(rand.NewSource(seed+i))", n.Name)
			}
		}
		return true
	})
}

// checkCellWrite reports a write through a captured variable, permitting
// the per-slot idiom out[i] = … indexed by the cell's index parameter.
func checkCellWrite(pass *Pass, lhs ast.Expr, idxName string, free func(string) bool) {
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		if idxName != "" && mentionsIdent(ix.Index, idxName) {
			return // out[i] = …: each cell owns its slot
		}
		key := keyOf(ix.X)
		if key != "" && free(rootOf(key)) {
			pass.Reportf(lhs.Pos(), "unsound",
				"cell writes %s at an index not derived from the cell index: slots can collide across parallel cells; index by the cell's own index parameter or make the buffer cell-local", key)
		}
		return
	}
	key := keyOf(lhs)
	if key == "" || !free(rootOf(key)) {
		return
	}
	pass.Reportf(lhs.Pos(), "unsound",
		"cell mutates captured %s: the variable is shared across parallel cells, so the result depends on worker interleaving; make it cell-local or return it", key)
}

// windowReceivers are the engine types whose methods execute on worker
// goroutines during a parallel window: *Node and *shard run event bodies and
// queue maintenance inside runWindow, and *Timer.Stop is shard-local for
// exactly this reason. Methods on *Engine are not listed — the engine's own
// methods (round, replay, the barrier) run on the coordinating goroutine
// between windows, where engine-global writes are the whole point.
var windowReceivers = map[string]bool{"Node": true, "shard": true, "Timer": true}

// checkEngineShards applies the cross-shard rule to one file of package sim:
// inside a window-phase method, any write whose selector chain passes
// through the receiver's eng field mutates engine-global state from a
// sharded execution context. Function literals handed to Ordered(...) are
// exempt — they run single-threaded at the barrier's ordered commit.
func checkEngineShards(pass *Pass, file *ast.File) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) != 1 {
			continue
		}
		recv := fd.Recv.List[0]
		if !windowReceivers[receiverTypeName(recv.Type)] || len(recv.Names) == 0 {
			continue
		}
		rname := recv.Names[0].Name
		if rname == "" || rname == "_" {
			continue
		}
		checkWindowBody(pass, fd, rname)
	}
}

// checkWindowBody walks one window-phase method body and reports writes
// through <recv>.eng outside Ordered closures.
func checkWindowBody(pass *Pass, fd *ast.FuncDecl, rname string) {
	// Closures handed to Ordered run at the barrier, single-threaded: the
	// sanctioned way to touch engine-global state from window-phase code.
	ordered := map[*ast.FuncLit]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Ordered" {
			for _, a := range call.Args {
				if lit, ok := a.(*ast.FuncLit); ok {
					ordered[lit] = true
				}
			}
		}
		return true
	})

	engWrite := func(e ast.Expr) string {
		key := indexedKeyOf(e)
		rest, ok := strings.CutPrefix(key, rname+".eng")
		if ok && (rest == "" || rest[0] == '.') {
			return key
		}
		return ""
	}
	report := func(pos token.Pos, key string) {
		pass.Reportf(pos, "unsound",
			"(*%s).%s writes engine-global %s from a window-phase context: shards run concurrently inside a window, so cross-shard state may only change at the barrier; defer the write with Ordered or keep it shard-local",
			receiverTypeName(fd.Recv.List[0].Type), fd.Name.Name, key)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && ordered[lit] {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if key := engWrite(lhs); key != "" {
					report(lhs.Pos(), key)
				}
			}
		case *ast.IncDecStmt:
			// Appends need no case of their own: the mutating idiom
			// `x.eng.s = append(x.eng.s, …)` is caught by its assignment LHS,
			// and an append whose result is not stored back mutates nothing.
			if key := engWrite(n.X); key != "" {
				report(n.X.Pos(), key)
			}
		}
		return true
	})
}

// indexedKeyOf canonicalizes a write target like keyOf, but additionally
// looks through index expressions ("sh.eng.shards[0].now" ->
// "sh.eng.shards.now"): indexing into engine-global state is still a write
// to engine-global state.
func indexedKeyOf(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := indexedKeyOf(e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.ParenExpr:
		return indexedKeyOf(e.X)
	case *ast.StarExpr:
		return indexedKeyOf(e.X)
	case *ast.IndexExpr:
		return indexedKeyOf(e.X)
	}
	return ""
}

// receiverTypeName returns the bare type name of a method receiver
// ("*shard" -> "shard"), or "" for anything unrecognized.
func receiverTypeName(t ast.Expr) string {
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// isConfigType recognizes (&)core.Config / concert.Config composite-literal
// types.
func isConfigType(t ast.Expr, coreNames map[string]bool) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Config" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && coreNames[pkg.Name]
}

// mentionsIdent reports whether expression e contains the identifier name.
func mentionsIdent(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}

// cellLocals collects every name declared inside the cell literal: its
// parameters and all :=, var, and range declarations (including those of
// nested function literals — treating them cell-local errs toward fewer
// reports, the conservative direction for this pass).
func cellLocals(lit *ast.FuncLit) map[string]bool {
	local := map[string]bool{}
	if lit.Type.Params != nil {
		for _, f := range lit.Type.Params.List {
			for _, name := range f.Names {
				local[name.Name] = true
			}
		}
	}
	if lit.Type.Results != nil {
		for _, f := range lit.Type.Results.List {
			for _, name := range f.Names {
				local[name.Name] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				local[name.Name] = true
			}
		case *ast.RangeStmt:
			if n.Tok == token.DEFINE {
				for _, v := range []ast.Expr{n.Key, n.Value} {
					if id, ok := v.(*ast.Ident); ok {
						local[id.Name] = true
					}
				}
			}
		case *ast.FuncLit:
			if n.Type.Params != nil {
				for _, f := range n.Type.Params.List {
					for _, name := range f.Names {
						local[name.Name] = true
					}
				}
			}
		case *ast.TypeSwitchStmt:
			if as, ok := n.Assign.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok {
					local[id.Name] = true
				}
			}
		}
		return true
	})
	return local
}
