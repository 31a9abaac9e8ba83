package lang

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exp"
)

// corpusFile is one program of the fixed corpus under testdata/corpus: the
// package's test programs and examples/minilang/binom.cal.
type corpusFile struct{ name, src string }

func readCorpus(tb testing.TB) []corpusFile {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "corpus", "*.cal"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no corpus files: %v", err)
	}
	var out []corpusFile
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, corpusFile{filepath.Base(p), string(b)})
	}
	return out
}

// transcribe appends what Compile makes of src to b: the error, or each
// method's compiled metadata with its schema under Interfaces3.
func transcribe(b *strings.Builder, label, src string) {
	c, err := Compile(src)
	if err != nil {
		fmt.Fprintf(b, "%s: %v\n", label, err)
		return
	}
	if err := c.Prog.Resolve(core.Interfaces3); err != nil {
		fmt.Fprintf(b, "%s: resolve: %v\n", label, err)
		return
	}
	fmt.Fprintf(b, "%s: ok\n", label)
	names := func(ms []*core.Method) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	for _, m := range c.Prog.Methods() {
		fmt.Fprintf(b, "  %s args=%d locals=%d futures=%d locks=%v mayblock=%v calls=%v forwards=%v emitted=%v\n",
			m.Name, m.NArgs, m.NLocals, m.NFutures, m.Locks, m.MayBlockLocal,
			names(m.Calls), names(m.Forwards), m.Emitted)
	}
}

// TestCompileCorpusPin: every byte-prefix of each corpus file, and every
// copy of it with one byte deleted, compiles to the same error, or to the
// same methods with the same metadata, as when the pin was taken. The
// variants reach the error paths of the lexer, the parser and the lowering.
func TestCompileCorpusPin(t *testing.T) {
	const want = "526fb51adab22b27"
	var b strings.Builder
	variants := 0
	for _, f := range readCorpus(t) {
		for i := 0; i <= len(f.src); i++ {
			transcribe(&b, fmt.Sprintf("%s[:%d]", f.name, i), f.src[:i])
		}
		for i := 0; i < len(f.src); i++ {
			transcribe(&b, fmt.Sprintf("%s-%d", f.name, i), f.src[:i]+f.src[i+1:])
		}
		variants += 2*len(f.src) + 1
	}
	if got := exp.Fingerprint(b.String()); got != want {
		t.Fatalf("transcript of %d variants: fingerprint %s, want %s", variants, got, want)
	}
}

// FuzzCompile: Compile never panics, every error it returns is an *Error
// with a position of at least 1:1, and every program it accepts resolves
// under each interface set. The corpus seeds the target, so the seeds run
// offline in every go test; make fuzz explores from them.
func FuzzCompile(f *testing.F) {
	for _, c := range readCorpus(f) {
		f.Add(c.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Compile(src)
		if err != nil {
			if e, ok := err.(*Error); !ok || e.Line < 1 || e.Col < 1 {
				t.Fatalf("Compile(%q) = %#v, want an *Error positioned at 1:1 or later", src, err)
			}
			return
		}
		for _, set := range []core.SchemaSet{core.Interfaces1, core.Interfaces2, core.Interfaces3} {
			if err := c.Prog.Resolve(set); err != nil {
				t.Fatalf("Compile(%q) accepted, but Resolve(%b): %v", src, set, err)
			}
		}
	})
}
