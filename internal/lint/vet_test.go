package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkFixture runs the given analyzers over one fixture directory and
// compares the findings against the file's want:<category> markers, exactly
// — a missing or extra diagnostic on any line fails.
func checkFixture(t *testing.T, analyzers []*Analyzer, dir, file string) []Finding {
	t.Helper()
	path := filepath.Join("testdata", "src", dir)
	findings, err := Run(analyzers, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	want := wantMarkers(t, filepath.Join(path, file))
	got := map[string]int{}
	for _, f := range findings {
		got[fmt.Sprintf("%d:%s", f.Position.Line, f.Category)]++
	}
	for key, n := range want {
		if got[key] != n {
			t.Errorf("line %s: want %d diagnostic(s), got %d", key, n, got[key])
		}
	}
	for key, n := range got {
		if want[key] != n {
			t.Errorf("line %s: unexpected diagnostic(s) (%d reported, %d marked)", key, n, want[key])
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("reported: %s", f)
		}
	}
	return findings
}

func TestDetRandBadFixture(t *testing.T) {
	findings := checkFixture(t, []*Analyzer{DetRand}, "detrandbad", "detrandbad.go")
	wantSub := []string{
		"output order is the map's randomized iteration order",
		"append to keys in map-iteration order",
		"append to r.names in map-iteration order",
		"global rand.Intn draws from the process-wide source",
		"time.Now reads the wall clock",
	}
	for _, sub := range wantSub {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding contains %q", sub)
		}
	}
}

func TestDetRandGoodFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{DetRand}, "detrandgood", "detrandgood.go")
}

func TestCellShareBadFixture(t *testing.T) {
	findings := checkFixture(t, []*Analyzer{CellShare}, "cellsharebad", "cellsharebad.go")
	wantSub := []string{
		"cell mutates captured total",
		"cell appends to captured out",
		"cell mutates captured hits",
		"captured *rand.Rand rng",
		"Config.Tracer set to captured tr",
		"Config.Network set to captured net",
		"cell writes buf at an index not derived from the cell index",
	}
	for _, sub := range wantSub {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding contains %q", sub)
		}
	}
}

func TestCellShareGoodFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{CellShare}, "cellsharegood", "cellsharegood.go")
}

// TestShardShareBadFixture: the engine-shard rule — window-phase methods
// (*Node, *shard, *Timer in package sim) writing engine-global state through
// the receiver's eng field must each produce the marked diagnostic.
func TestShardShareBadFixture(t *testing.T) {
	findings := checkFixture(t, []*Analyzer{CellShare}, "shardsharebad", "shardsharebad.go")
	wantSub := []string{
		"(*Node).deliver writes engine-global n.eng.pending",
		"(*Node).deliver writes engine-global n.eng.counts",
		"(*Node).deliver writes engine-global n.eng.gsh.now",
		"(*shard).dispatch writes engine-global sh.eng.shards.now",
		"(*shard).dispatch writes engine-global sh.eng.pending",
		"(*Timer).Stop writes engine-global t.eng.pending",
		"(*Node).indirect writes engine-global n.eng.pending",
	}
	for _, sub := range wantSub {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding contains %q", sub)
		}
	}
}

// TestShardShareGoodFixture: reads, receiver-own writes, the commit-log
// append, Ordered closures and Engine methods must all stay quiet.
func TestShardShareGoodFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{CellShare}, "shardsharegood", "shardsharegood.go")
}

func TestGoldenPathBadFixture(t *testing.T) {
	findings := checkFixture(t, []*Analyzer{GoldenPath}, "goldenpathbad", "goldenpathbad.go")
	wantSub := []string{
		"writes to implicit os.Stdout",
		"os.Stdout referenced outside func main",
		"unchecked w.Flush()",
		"deferred w.Flush() discards the flush error",
	}
	for _, sub := range wantSub {
		found := false
		for _, f := range findings {
			if strings.Contains(f.Message, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding contains %q", sub)
		}
	}
}

func TestGoldenPathGoodFixture(t *testing.T) {
	checkFixture(t, []*Analyzer{GoldenPath}, "goldenpathgood", "goldenpathgood.go")
}

// TestGoldenPathSkipsUntestedDirs: without a golden_test.go on disk the
// analyzer must not fire at all — interactive CLIs may print freely.
func TestGoldenPathSkipsUntestedDirs(t *testing.T) {
	findings, err := Run([]*Analyzer{GoldenPath}, []string{filepath.Join("testdata", "src", "goldenpathskip")})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("goldenpath fired outside a golden-tested dir: %s", f)
	}
}

// TestAllowFixture pins the //lint:allow contract: working trailing and
// standalone suppressions, a stale allow reported as pessimizing, malformed
// allows reported as unsound (and granting nothing).
func TestAllowFixture(t *testing.T) {
	findings, err := Run([]*Analyzer{DetRand}, []string{filepath.Join("testdata", "src", "allowcase")})
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ analyzer, category, sub string }
	want := []key{
		{"allow", "pessimizing", "stale //lint:allow detrand"},
		{"allow", "unsound", "malformed //lint:allow"},
		{"allow", "unsound", "missing its reason"},
		{"detrand", "unsound", "time.Now reads the wall clock"},
	}
	if len(findings) != len(want) {
		t.Errorf("want %d findings, got %d (suppressions leaked or reports missing)", len(want), len(findings))
	}
	for _, w := range want {
		found := false
		for _, f := range findings {
			if f.Analyzer == w.analyzer && f.Category == w.category && strings.Contains(f.Message, w.sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s/%s finding containing %q", w.analyzer, w.category, w.sub)
		}
	}
	// The suppressed findings must not resurface under any wording.
	for _, f := range findings {
		if strings.Contains(f.Message, "Fprintf") {
			t.Errorf("standalone suppression failed: %s", f)
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("reported: %s", f)
		}
	}
}

// TestExpandPatternsEdgeCases builds a throwaway tree and checks the
// expander's skip, dedup, and error behavior precisely.
func TestExpandPatternsEdgeCases(t *testing.T) {
	root := t.TempDir()
	write := func(rel string) {
		t.Helper()
		path := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte("package x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a/a.go")
	write("a/testdata/skip.go")
	write("a/inner/i.go")
	write("a/inner/testdata/deep/skip.go")
	write("_disabled/d.go")
	write(".hidden/h.go")
	if err := os.MkdirAll(filepath.Join(root, "empty"), 0o755); err != nil {
		t.Fatal(err)
	}

	dirs, err := ExpandPatterns([]string{root + "/...", filepath.Join(root, "a")})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(root, "a"), filepath.Join(root, "a", "inner")}
	if len(dirs) != len(want) {
		t.Fatalf("want dirs %v, got %v", want, dirs)
	}
	for i := range want {
		if dirs[i] != want[i] {
			t.Fatalf("want dirs %v, got %v", want, dirs)
		}
	}

	if _, err := ExpandPatterns([]string{filepath.Join(root, "missing")}); err == nil {
		t.Error("missing directory pattern: want error, got nil")
	}
	if _, err := ExpandPatterns([]string{filepath.Join(root, "missing") + "/..."}); err == nil {
		t.Error("missing tree pattern: want error, got nil")
	}
}

// TestRepoVetClean is the permanent gate: the full determinism-vet suite
// over the whole repo — the same set `make lint` runs in CI — must be quiet.
// A failure here means a new determinism bug or a new analyzer false
// positive; fix the code or add a reasoned //lint:allow, never loosen the
// test.
func TestRepoVetClean(t *testing.T) {
	up := func(parts ...string) string {
		return filepath.Join(append([]string{"..", ".."}, parts...)...)
	}
	patterns := []string{
		up("internal") + "/...",
		up("cmd") + "/...",
		up("apps") + "/...",
		up("examples") + "/...",
		up("structures"),
		up(),
	}
	findings, err := Run(AllAnalyzers, patterns)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("determinism-vet finding: %s", f)
	}
}
