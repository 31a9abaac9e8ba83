package lint

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// DetRand flags the nondeterminism sources that keep breaking the repo's
// bit-determinism contract (-j 1 / -j N byte-identical output, golden
// tables, rerun tests):
//
//   - a `for … range` over a map whose body feeds an order-sensitive sink —
//     a print/write/encode call, or an append to a variable that outlives
//     the loop and is never sorted afterwards. Map iteration order is
//     deliberately randomized by the Go runtime, so any bytes or state
//     built in that order vary run to run.
//   - package-level math/rand functions (Intn, Shuffle, …): they draw from
//     the process-global source, which is shared across goroutines and not
//     seeded by the experiment's seed.
//   - time.Now / time.Since: wall-clock readings are nondeterministic by
//     definition; simulated time must come from the engine's virtual clock.
//     Wall-clock *benchmarking* is the sanctioned exception: the bench/
//     module (declared by BENCHMARK.json, documented in bench/README.md)
//     marks its one clock read with a //lint:allow detrand comment.
//
// The pass is syntax-only and conservative in what it calls a map: a range
// expression counts only when the analyzer can see a map declaration for it
// — a local assigned make(map…) or a map literal, a `var x map[…]…`, a
// map-typed parameter, a package-level map var, or a selector whose final
// field is declared with a map type by a struct in the same package.
// Anything it cannot resolve is skipped (no go/types offline), and a body
// that only aggregates commutatively (counters, sums, map inserts) is never
// flagged. The collect-keys-then-sort idiom is recognized: an append target
// later passed to a sort.* or slices.* call is order-laundered and clean.
var DetRand = &Analyzer{
	Name: "detrand",
	Doc:  "flag nondeterminism sources: map-order output, global math/rand, wall clock",
	Run:  runDetRand,
}

// sinkNames are call names (last selector element or bare identifier) that
// emit bytes or grow ordered output: reached from a map-range body, the
// emission order is the map's iteration order.
var sinkNames = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteAll": true, "Encode": true, "Render": true, "AddRow": true,
	"Record": true,
}

// randConstructors are the math/rand names that build a seedable private
// source rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true, "NewZipf": true,
	"NewChaCha8": true,
}

func runDetRand(pass *Pass) error {
	mapFields, pkgMaps := packageMapDecls(pass.Files)
	for _, file := range pass.Files {
		randName := importLocalName(file, "math/rand", "math/rand/v2")
		timeName := importLocalName(file, "time")
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if randName != "" && pkg.Name == randName && !randConstructors[sel.Sel.Name] {
					pass.Reportf(n.Pos(), "unsound",
						"call to global %s.%s draws from the process-wide source, unseeded by the experiment seed; use a per-run rand.New(rand.NewSource(seed))",
						randName, sel.Sel.Name)
				}
				if timeName != "" && pkg.Name == timeName && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since") {
					pass.Reportf(n.Pos(), "unsound",
						"%s.%s reads the wall clock; simulated results must derive from virtual time (allow only for wall-clock benchmarking)",
						timeName, sel.Sel.Name)
				}
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFuncMapRanges(pass, n.Type, n.Body, mapFields, pkgMaps)
				}
			}
			return true
		})
	}
	return nil
}

// packageMapDecls collects, across the package's files, the struct field
// names declared with a map type and the package-level map variables.
func packageMapDecls(files []*ast.File) (fields, vars map[string]bool) {
	fields, vars = map[string]bool{}, map[string]bool{}
	for _, file := range files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					st, ok := s.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, f := range st.Fields.List {
						if isMapType(f.Type) {
							for _, name := range f.Names {
								fields[name.Name] = true
							}
						}
					}
				case *ast.ValueSpec:
					if isMapType(s.Type) || anyMapValue(s.Values) {
						for _, name := range s.Names {
							vars[name.Name] = true
						}
					}
				}
			}
		}
	}
	return fields, vars
}

func isMapType(e ast.Expr) bool {
	_, ok := e.(*ast.MapType)
	return ok
}

func anyMapValue(values []ast.Expr) bool {
	for _, v := range values {
		if isMapValue(v, nil) {
			return true
		}
	}
	return false
}

// isMapValue reports whether e syntactically constructs a map: make(map…),
// a map composite literal, or an identifier already known map-typed.
func isMapValue(e ast.Expr, known map[string]bool) bool {
	switch v := e.(type) {
	case *ast.CompositeLit:
		return isMapType(v.Type)
	case *ast.CallExpr:
		if id, ok := v.Fun.(*ast.Ident); ok && id.Name == "make" && len(v.Args) > 0 {
			return isMapType(v.Args[0])
		}
	case *ast.Ident:
		return known[v.Name]
	}
	return false
}

// checkFuncMapRanges analyzes one function body: it first learns which local
// names are map-typed, then flags map ranges whose bodies reach a sink.
func checkFuncMapRanges(pass *Pass, ft *ast.FuncType, body *ast.BlockStmt, mapFields, pkgMaps map[string]bool) {
	localMaps := map[string]bool{}
	collectMapParams(ft, localMaps)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && isMapValue(n.Rhs[i], localMaps) {
						localMaps[id.Name] = true
					}
				}
			}
		case *ast.ValueSpec:
			if isMapType(n.Type) {
				for _, name := range n.Names {
					localMaps[name.Name] = true
				}
			} else if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					if isMapValue(n.Values[i], localMaps) {
						localMaps[n.Names[i].Name] = true
					}
				}
			}
		case *ast.FuncLit:
			collectMapParams(n.Type, localMaps)
		}
		return true
	})

	isMapExpr := func(e ast.Expr) bool {
		switch v := e.(type) {
		case *ast.Ident:
			return localMaps[v.Name] || pkgMaps[v.Name]
		case *ast.SelectorExpr:
			return mapFields[v.Sel.Name]
		}
		return false
	}

	// Sorted-append laundering: every key handed to a sort.* / slices.*
	// call — or to any function whose name mentions sorting, covering local
	// helpers like sortInts — anywhere in this function.
	sorted := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sortish := false
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if pkg, ok := fun.X.(*ast.Ident); ok && (pkg.Name == "sort" || pkg.Name == "slices") {
				sortish = true
			}
			sortish = sortish || strings.Contains(strings.ToLower(fun.Sel.Name), "sort")
		case *ast.Ident:
			sortish = strings.Contains(strings.ToLower(fun.Name), "sort")
		}
		if sortish {
			for _, arg := range call.Args {
				if k := keyOf(stripAddr(arg)); k != "" {
					sorted[k] = true
				}
			}
		}
		return true
	})

	type pendingAppend struct {
		key string
		pos token.Pos
	}
	var pending []pendingAppend

	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok || !isMapExpr(rs.X) {
			return true
		}
		over := keyOf(rs.X)
		if over == "" {
			over = "map"
		}
		// Names declared inside the loop body (plus the range vars) are
		// loop-local: appends to them do not outlive one iteration.
		declared := map[string]bool{}
		for _, v := range []ast.Expr{rs.Key, rs.Value} {
			if id, ok := v.(*ast.Ident); ok && v != nil {
				declared[id.Name] = true
			}
		}
		ast.Inspect(rs.Body, func(b ast.Node) bool {
			switch b := b.(type) {
			case *ast.AssignStmt:
				if b.Tok == token.DEFINE {
					for _, lhs := range b.Lhs {
						if id, ok := lhs.(*ast.Ident); ok {
							declared[id.Name] = true
						}
					}
				}
			case *ast.ValueSpec:
				for _, name := range b.Names {
					declared[name.Name] = true
				}
			case *ast.RangeStmt:
				for _, v := range []ast.Expr{b.Key, b.Value} {
					if id, ok := v.(*ast.Ident); ok && v != nil {
						declared[id.Name] = true
					}
				}
			}
			return true
		})
		ast.Inspect(rs.Body, func(b ast.Node) bool {
			call, ok := b.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "append" && len(call.Args) > 0 {
					dst := keyOf(call.Args[0])
					root := rootOf(dst)
					if dst != "" && root != "" && root != "_" && !declared[root] {
						pending = append(pending, pendingAppend{key: dst, pos: call.Pos()})
					}
				}
			case *ast.SelectorExpr:
				if sinkNames[fun.Sel.Name] {
					pass.Reportf(call.Pos(), "unsound",
						"range over map %s writes through %s inside the loop: output order is the map's randomized iteration order; iterate sorted keys instead",
						over, fun.Sel.Name)
				}
			}
			return true
		})
		return true
	})

	for _, p := range pending {
		if !sorted[p.key] {
			pass.Reportf(p.pos, "unsound",
				"append to %s in map-iteration order with no later sort: the slice's element order varies run to run; sort it or iterate sorted keys",
				p.key)
		}
	}
}

// collectMapParams records map-typed parameters as known maps.
func collectMapParams(ft *ast.FuncType, into map[string]bool) {
	if ft == nil || ft.Params == nil {
		return
	}
	for _, f := range ft.Params.List {
		if isMapType(f.Type) {
			for _, name := range f.Names {
				into[name.Name] = true
			}
		}
	}
}

// rootOf returns the leading identifier of a dotted key ("m.chunk.Calls" ->
// "m"), or the key itself when undotted.
func rootOf(key string) string {
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[:i]
	}
	return key
}

// stripAddr unwraps a leading &.
func stripAddr(e ast.Expr) ast.Expr {
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

// importLocalName returns the file-local name under which any of the given
// import paths is imported, or "" when none is.
func importLocalName(file *ast.File, paths ...string) string {
	for _, imp := range file.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		for _, want := range paths {
			if p != want {
				continue
			}
			if imp.Name != nil {
				if imp.Name.Name == "_" || imp.Name.Name == "." {
					return ""
				}
				return imp.Name.Name
			}
			// Default name: last path segment, skipping version suffixes
			// ("math/rand/v2" imports as rand).
			segs := strings.Split(p, "/")
			name := segs[len(segs)-1]
			if len(segs) > 1 && len(name) > 1 && name[0] == 'v' && name[1] >= '0' && name[1] <= '9' {
				name = segs[len(segs)-2]
			}
			return name
		}
	}
	return ""
}
