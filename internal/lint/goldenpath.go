package lint

import (
	"go/ast"
	"os"
	"strings"
)

// GoldenPath verifies that golden-tested binaries keep every user-visible
// byte inside the swappable, buffered, flush-checked writer the golden
// tests capture. The house idiom (cmd/tables) is a package-level
// `var out io.Writer = os.Stdout` (or an io.Writer parameter threaded from
// main) that the golden tests swap for a bytes.Buffer; anything written
// around that funnel — an implicit-stdout fmt.Print, a direct os.Stdout
// argument outside main's wiring — is output the golden tests cannot see,
// which is exactly where byte-level regressions hide. Unchecked flushes are
// the other half of the contract: bufio and csv errors are sticky, so a
// bare `w.Flush()` with no error check (or a deferred one, whose error is
// unobservable) can truncate output and still exit zero.
//
// Scope: the pass fires only in package directories containing a
// *golden_test.go file — packages whose output IS a byte-level contract.
// Everything else (interactive CLIs, examples) may write to stdout freely
// and is skipped. Within a golden package it reports:
//
//   - fmt.Print / Printf / Println: implicit os.Stdout, and interleaves
//     unbuffered bytes with the buffered funnel even when stdout is meant;
//   - os.Stdout referenced outside func main and outside package-level var
//     initializers (both are the sanctioned wiring points);
//   - a bare `x.Flush()` expression statement in a function that never
//     checks `x.Error()` (the csv.Writer idiom; bufio's Flush returns its
//     error directly and must be consumed), and any deferred Flush.
var GoldenPath = &Analyzer{
	Name: "goldenpath",
	Doc:  "in golden-tested packages, keep all output inside the swappable checked-flush writer",
	Run:  runGoldenPath,
}

func runGoldenPath(pass *Pass) error {
	if !hasGoldenTest(pass.Dir) {
		return nil
	}
	for _, file := range pass.Files {
		fmtName := importLocalName(file, "fmt")
		osName := importLocalName(file, "os")
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue // package-level var initializers may name os.Stdout: that is the funnel's default
			}
			inMain := fd.Recv == nil && fd.Name.Name == "main"
			checkGoldenFunc(pass, fd, inMain, fmtName, osName)
		}
	}
	return nil
}

// hasGoldenTest reports whether dir contains a *golden_test.go file.
func hasGoldenTest(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), "golden_test.go") {
			return true
		}
	}
	return false
}

func checkGoldenFunc(pass *Pass, fd *ast.FuncDecl, inMain bool, fmtName, osName string) {
	// First pass: receivers whose Error() is consulted somewhere in this
	// function — the csv.Writer flush idiom.
	errorChecked := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Error" {
			if k := keyOf(sel.X); k != "" {
				errorChecked[k] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && fmtName != "" && pkg.Name == fmtName {
				switch sel.Sel.Name {
				case "Print", "Printf", "Println":
					pass.Reportf(n.Pos(), "unsound",
						"%s.%s writes to implicit os.Stdout, bypassing the package's swappable writer: golden tests cannot see these bytes, and they interleave with the buffered output", fmtName, sel.Sel.Name)
				}
			}
		case *ast.SelectorExpr:
			if pkg, ok := n.X.(*ast.Ident); ok && osName != "" && pkg.Name == osName &&
				n.Sel.Name == "Stdout" && !inMain {
				pass.Reportf(n.Pos(), "unsound",
					"os.Stdout referenced outside func main: route output through the package's swappable writer so golden tests cover it")
			}
		case *ast.ExprStmt:
			if recv, ok := bareFlush(n.X); ok && !errorChecked[recv] {
				pass.Reportf(n.X.Pos(), "unsound",
					"unchecked %s.Flush(): writer errors are sticky and a failed flush must not exit zero; check the returned error, or %s.Error() for csv.Writer", recv, recv)
			}
		case *ast.DeferStmt:
			if recv, ok := bareFlush(n.Call); ok {
				pass.Reportf(n.Call.Pos(), "unsound",
					"deferred %s.Flush() discards the flush error: flush explicitly before returning and check it", recv)
			}
		}
		return true
	})
}

// bareFlush matches a no-argument <recv>.Flush() call and returns the
// receiver key.
func bareFlush(e ast.Expr) (string, bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Flush" {
		return "", false
	}
	k := keyOf(sel.X)
	if k == "" {
		return "", false
	}
	return k, true
}
