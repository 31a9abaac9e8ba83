// Command minic compiles and runs a program in the mini fine-grained
// concurrent language (see internal/lang) on a simulated multicomputer —
// the end-to-end analog of compiling an ICC++ program with the Concert
// compiler and running it on the CM-5.
//
// Usage:
//
//	minic [-machine cm5|t3d|sparc] [-mode hybrid|parallel] [-interfaces N]
//	      [-nodes N] [-entry main] [-stats] file.cal arg...
//
// The entry method runs on node 0 with the integer arguments; its result
// and the simulated execution time are printed. A run that does not
// complete, or completes without quiescing, exits with status 1.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/sim"
)

func main() {
	machineName := flag.String("machine", "sparc", "machine model: cm5, t3d, sparc")
	mode := flag.String("mode", "hybrid", "execution model: hybrid, parallel")
	interfaces := flag.Int("interfaces", 3, "sequential interfaces: 1, 2 or 3")
	nodes := flag.Int("nodes", 1, "simulated processors")
	entry := flag.String("entry", "main", "entry method")
	stats := flag.Bool("stats", false, "print execution-model statistics")
	flag.Parse()

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: minic [flags] file.cal arg...")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	mdl := machine.ByName(*machineName)
	if mdl == nil {
		fatal(fmt.Errorf("unknown machine %q", *machineName))
	}
	cfg := core.DefaultHybrid()
	switch *mode {
	case "hybrid":
		switch *interfaces {
		case 1:
			cfg.Interfaces = core.Interfaces1
		case 2:
			cfg.Interfaces = core.Interfaces2
		case 3:
			cfg.Interfaces = core.Interfaces3
		default:
			fatal(fmt.Errorf("interfaces must be 1, 2 or 3"))
		}
	case "parallel":
		cfg = core.ParallelOnly()
	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}

	c, err := lang.Compile(string(src))
	if err != nil {
		fatal(err)
	}
	m, ok := c.Methods[*entry]
	if !ok {
		fatal(fmt.Errorf("no method %q in %s", *entry, flag.Arg(0)))
	}
	if got, want := flag.NArg()-1, m.NArgs; got != want {
		fatal(fmt.Errorf("%s takes %d arguments, got %d", *entry, want, got))
	}
	var args []core.Word
	for _, a := range flag.Args()[1:] {
		v, err := strconv.ParseInt(a, 10, 64)
		if err != nil {
			fatal(err)
		}
		args = append(args, core.IntW(v))
	}
	if err := c.Prog.Resolve(cfg.Interfaces); err != nil {
		fatal(err)
	}

	eng := sim.NewEngine(*nodes)
	rt := core.NewRT(eng, mdl, c.Prog, cfg)
	// The root object carries a small word-array state so entry methods may
	// use state[...] or create class instances.
	self := rt.Node(0).NewObject(make([]core.Word, 16))
	var res core.Result
	rt.StartOn(0, m, self, &res, args...)
	rt.Run()
	// A run fails unless it quiesces, even when the entry method replied:
	// frames left live or messages left queued mean work was lost.
	qerr := rt.CheckQuiescence()
	if !res.Done {
		fatal(fmt.Errorf("%s did not complete (deadlock?): %v", *entry, qerr))
	}
	if qerr != nil {
		fatal(fmt.Errorf("%s replied %d, but the run did not quiesce: %v", *entry, res.Val.Int(), qerr))
	}
	fmt.Printf("%s = %d\n", *entry, res.Val.Int())
	fmt.Printf("simulated time on %s: %.6f s (%d instructions)\n",
		mdl.Name, mdl.Seconds(eng.MaxClock()), eng.MaxClock())
	if *stats {
		s := rt.TotalStats()
		fmt.Printf("invocations %d (local %d, remote %d), stack calls %d, heap contexts %d, fallbacks %d\n",
			s.Invokes, s.LocalInvokes, s.RemoteInvokes, s.StackCalls, s.HeapInvokes, s.Fallbacks)
		c := eng.TotalCounters()
		fmt.Printf("schemas:")
		for _, m := range rt.Prog.Methods() {
			fmt.Printf(" %s=%v", m.Name, m.Emitted)
		}
		fmt.Println()
		fmt.Printf("instruction breakdown:")
		for op := instr.Op(0); op < instr.NumOps; op++ {
			if c[op] != 0 {
				fmt.Printf(" %s=%d", op, c[op])
			}
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "minic:", err)
	os.Exit(1)
}
