package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when a test re-executes the test binary
// through minic, so the tests see its real output and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("MINIC_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// minic runs the command with args and returns its stdout, its stderr and
// its exit status.
func minic(t *testing.T, args ...string) (stdout, stderr string, status int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MINIC_TEST_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		status = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), status
}

// TestBinomPins: the example program prints its pinned output under both
// execution models (make examples diffs the same files).
func TestBinomPins(t *testing.T) {
	for _, mode := range []string{"hybrid", "parallel"} {
		want, err := os.ReadFile("testdata/binom_" + mode + ".txt")
		if err != nil {
			t.Fatal(err)
		}
		got, stderr, status := minic(t, "-stats", "-mode", mode, "../../examples/minilang/binom.cal", "16", "8")
		if status != 0 || got != string(want) {
			t.Errorf("-mode %s: exit %d, stderr %q, output\n%s\nwant\n%s", mode, status, stderr, got, want)
		}
	}
}

// TestRunMustQuiesce: a run whose entry method replies while frames are
// still live fails with exit status 1 and the quiescence diagnostic.
func TestRunMustQuiesce(t *testing.T) {
	for _, mode := range []string{"hybrid", "parallel"} {
		stdout, stderr, status := minic(t, "-mode", mode, "testdata/noquiesce.cal")
		want := "minic: main replied 7, but the run did not quiesce: core: node 0 not quiescent: 2 live frames"
		if status != 1 || stdout != "" || !strings.HasPrefix(stderr, want) {
			t.Errorf("-mode %s: exit %d, stdout %q, stderr %q; want exit 1, no output, stderr starting %q",
				mode, status, stdout, stderr, want)
		}
	}
}
