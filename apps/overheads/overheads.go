// Package overheads reproduces the paper's Table 2: the base cost of each
// sequential invocation schema and of the fallback paths, expressed in
// machine instructions beyond a plain C function call.
//
// Measurements are taken *inside* the simulation: a measuring caller reads
// its node's busy-instruction counter immediately before and after one
// invocation, so the numbers are exactly what the execution model charges
// along each path — the same methodology as the paper's dynamic instruction
// counts.
package overheads

import (
	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/machine"
	"repro/internal/sim"
)

// Entry is one measured scenario.
type Entry struct {
	Scenario string
	// Caller is "stack" or "heap" — whether the measuring caller was itself
	// executing speculatively on the stack or from a heap context.
	Caller string
	// Overhead is instructions beyond a plain C call (plus useful work,
	// which the leaf methods do not have).
	Overhead instr.Instr
	// Fallback marks scenarios where the invocation could not complete on
	// the stack; Overhead then includes the unwinding cost at the caller.
	Fallback bool
	// Messages marks scenarios whose cost includes communication.
	Messages bool
}

// scenario identifiers, passed to the measuring caller.
const (
	scNB = iota
	scMB
	scCP
	scMBLock    // callee blocks on a held lock: pure fallback, no messages
	scMBRemote  // callee needs remote data: fallback + request send
	scCPForward // callee forwards its continuation off-node
	scCPCapture // callee captures its continuation (lazy creation)
	numScenarios
)

var scenarioNames = [numScenarios]string{
	"call NB (completes)",
	"call MB (completes)",
	"call CP (completes)",
	"MB blocks on lock",
	"MB blocks on remote data",
	"CP forwards off-node",
	"CP captures continuation",
}

// recorder is the measurement object state.
type recorder struct {
	over      [numScenarios]instr.Instr
	remoteObj core.Ref // a cell on another node
	lockObj   core.Ref // the object the lock-holder occupies
}

type cell struct{ v int64 }

// Measure runs every scenario under the given machine model and returns the
// measured table (stack-caller and heap-caller variants of each scenario),
// plus the parallel (heap) invocation overhead for reference. An optional
// adorn hook decorates every configuration before use (e.g. to install
// observability); it must not change execution-model options.
func Measure(mdl *machine.Model, adorn ...func(core.Config) core.Config) ([]Entry, instr.Instr, instr.Instr) {
	ad := func(c core.Config) core.Config { return c }
	if len(adorn) > 0 && adorn[0] != nil {
		ad = adorn[0]
	}
	var entries []Entry
	for sc := 0; sc < numScenarios; sc++ {
		for _, stackCaller := range []bool{true, false} {
			entries = append(entries, Entry{
				Scenario: scenarioNames[sc],
				Caller:   callerName(stackCaller),
				Overhead: measureOne(mdl, sc, stackCaller, ad),
				Fallback: sc >= scMBLock,
				Messages: sc == scMBRemote || sc == scCPForward,
			})
		}
	}
	return entries, measureHeapInvoke(mdl, ad), mdl.RemoteInvoke(1)
}

func callerName(stack bool) string {
	if stack {
		return "stack"
	}
	return "heap"
}

// buildProgram registers the micro methods. The measuring method reads the
// node's busy counter around exactly one invocation.
func buildProgram() (*core.Program, *core.Method, map[string]*core.Method) {
	p := core.NewProgram()
	ms := map[string]*core.Method{}

	nbLeaf := &core.Method{Name: "ov.nb"}
	nbLeaf.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		rt.Reply(fr, 1)
		return core.Done
	}
	p.Add(nbLeaf)
	ms["nb"] = nbLeaf

	remoteGet := &core.Method{Name: "ov.remoteGet"}
	remoteGet.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		rt.Reply(fr, core.IntW(fr.Node.State(fr.Self).(*cell).v))
		return core.Done
	}
	p.Add(remoteGet)
	ms["remoteGet"] = remoteGet

	// mbLeaf(kind): kind 0 completes; kind 1 touches remote data.
	mbLeaf := &core.Method{Name: "ov.mb", NArgs: 2, NFutures: 1,
		MayBlockLocal: true, Calls: []*core.Method{remoteGet}}
	mbLeaf.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		switch fr.PC {
		case 0:
			if fr.Arg(0).Int() == 0 {
				rt.Reply(fr, 1)
				return core.Done
			}
			st := rt.Invoke(fr, remoteGet, fr.Arg(1).Ref(), 0)
			fr.PC = 1
			if st == core.NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			if !rt.TouchAll(fr, core.Mask(0)) {
				return core.Unwound
			}
			rt.Reply(fr, fr.Fut(0))
			return core.Done
		}
		panic("ov.mb: bad pc")
	}
	p.Add(mbLeaf)
	ms["mb"] = mbLeaf

	// lockedLeaf: a locking method used for the pure-fallback scenario.
	// Locks alone already feeds the may-block analysis; the straight-line
	// body has no touch, so MayBlockLocal would be a false claim.
	lockedLeaf := &core.Method{Name: "ov.locked", Locks: true}
	lockedLeaf.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		rt.Reply(fr, 1)
		return core.Done
	}
	p.Add(lockedLeaf)
	ms["locked"] = lockedLeaf

	// holder: acquires the lock and suspends on remote data, so a
	// subsequent lockedLeaf invocation blocks without any communication at
	// the measured call site.
	holder := &core.Method{Name: "ov.holder", NArgs: 1, NFutures: 1, Locks: true,
		MayBlockLocal: true, Calls: []*core.Method{remoteGet}}
	holder.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		switch fr.PC {
		case 0:
			st := rt.Invoke(fr, remoteGet, fr.Arg(0).Ref(), 0)
			fr.PC = 1
			if st == core.NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 1:
			if !rt.TouchAll(fr, core.Mask(0)) {
				return core.Unwound
			}
			rt.Reply(fr, 1)
			return core.Done
		}
		panic("ov.holder: bad pc")
	}
	p.Add(holder)
	ms["holder"] = holder

	// cpLeaf(kind, target): kind 0 completes; kind 1 forwards off-node;
	// kind 2 captures its continuation and determines it explicitly.
	cpLeaf := &core.Method{Name: "ov.cp", NArgs: 2, Captures: true,
		Forwards: []*core.Method{remoteGet}}
	cpLeaf.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		switch fr.Arg(0).Int() {
		case 0:
			rt.Reply(fr, 1)
			return core.Done
		case 1:
			return rt.ForwardTail(fr, remoteGet, fr.Arg(1).Ref())
		default:
			cont := rt.CaptureCont(fr)
			rt.DeliverCont(fr.Node, cont, 1, false)
			return core.Forwarded
		}
	}
	p.Add(cpLeaf)
	ms["cp"] = cpLeaf

	// measure(scenario): one measured invocation, result recorded in the
	// recorder object. Slot 0 receives the measured call's future.
	measure := &core.Method{Name: "ov.measure", NArgs: 1, NFutures: 1, NLocals: 1,
		MayBlockLocal: true,
		Calls:         []*core.Method{nbLeaf, mbLeaf, cpLeaf, lockedLeaf}}
	measure.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		r := fr.Node.State(fr.Self).(*recorder)
		sc := int(fr.Arg(0).Int())
		switch fr.PC {
		case 0:
			before := fr.Node.Sim.Counters.Busy()
			var st core.CallStatus
			switch sc {
			case scNB:
				st = rt.Invoke(fr, nbLeaf, fr.Self, 0)
			case scMB:
				st = rt.Invoke(fr, mbLeaf, fr.Self, 0, core.IntW(0), 0)
			case scCP:
				st = rt.Invoke(fr, cpLeaf, fr.Self, 0, core.IntW(0), 0)
			case scMBLock:
				st = rt.Invoke(fr, lockedLeaf, r.lockObj, 0)
			case scMBRemote:
				st = rt.Invoke(fr, mbLeaf, fr.Self, 0, core.IntW(1), core.RefW(r.remoteObj))
			case scCPForward:
				st = rt.Invoke(fr, cpLeaf, fr.Self, 0, core.IntW(1), core.RefW(r.remoteObj))
			case scCPCapture:
				st = rt.Invoke(fr, cpLeaf, fr.Self, 0, core.IntW(2), 0)
			}
			fr.PC = 1
			if st == core.NeedUnwind {
				ret := rt.Unwind(fr)
				r.over[sc] = fr.Node.Sim.Counters.Busy() - before
				return ret
			}
			r.over[sc] = fr.Node.Sim.Counters.Busy() - before
			fallthrough
		case 1:
			if !rt.TouchAll(fr, core.Mask(0)) {
				return core.Unwound
			}
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("ov.measure: bad pc")
	}
	p.Add(measure)
	ms["measure"] = measure
	return p, measure, ms
}

// measureOne runs one scenario and returns the recorded overhead beyond a
// plain C call.
func measureOne(mdl *machine.Model, sc int, stackCaller bool, adorn func(core.Config) core.Config) instr.Instr {
	p, measure, ms := buildProgram()

	// driver: optionally provides a stack-mode measuring caller, and for
	// the lock scenario first starts the holder.
	driver := &core.Method{Name: "ov.driver", NArgs: 1, NFutures: 1,
		MayBlockLocal: true, Calls: []*core.Method{measure, ms["holder"]}}
	driver.Body = func(rt *core.RT, fr *core.Frame) core.Status {
		r := fr.Node.State(fr.Self).(*recorder)
		switch fr.PC {
		case 0:
			if sc == scMBLock {
				// Occupy the lock: the holder suspends awaiting remote data.
				st := rt.Invoke(fr, ms["holder"], r.lockObj, core.JoinDiscard, core.RefW(r.remoteObj))
				if st == core.NeedUnwind {
					fr.PC = 1
					return rt.Unwind(fr)
				}
			}
			fr.PC = 1
			fallthrough
		case 1:
			st := rt.Invoke(fr, measure, fr.Self, 0, fr.Arg(0))
			fr.PC = 2
			if st == core.NeedUnwind {
				return rt.Unwind(fr)
			}
			fallthrough
		case 2:
			if !rt.TouchAll(fr, core.Mask(0)) {
				return core.Unwound
			}
			if !rt.TouchJoin(fr) {
				return core.Unwound
			}
			rt.Reply(fr, 0)
			return core.Done
		}
		panic("ov.driver: bad pc")
	}
	p.Add(driver)

	if err := p.Resolve(core.Interfaces3); err != nil {
		panic(err)
	}
	eng := sim.NewEngine(2)
	cfg := adorn(core.DefaultHybrid())
	rt := core.NewRT(eng, mdl, p, cfg)
	rec := &recorder{}
	self := rt.Node(0).NewObject(rec)
	rec.remoteObj = rt.Node(1).NewObject(&cell{v: 9})
	rec.lockObj = rt.Node(0).NewObject(nil)

	var res core.Result
	if stackCaller {
		// The driver invokes measure() as a local stack call, so the
		// measuring caller runs in stack mode.
		rt.StartOn(0, driver, self, &res, core.IntW(int64(sc)))
	} else {
		// measure() runs directly as a (heap) root context; for the lock
		// scenario the holder must be seeded first.
		if sc == scMBLock {
			var hres core.Result
			rt.StartOn(0, ms["holder"], rec.lockObj, &hres, core.RefW(rec.remoteObj))
		}
		rt.StartOn(0, measure, self, &res, core.IntW(int64(sc)))
	}
	rt.Run()
	if !res.Done {
		panic("overheads: scenario did not complete")
	}
	if err := rt.CheckQuiescence(); err != nil {
		panic(err)
	}
	over := rec.over[sc] - mdl.CCall
	if over < 0 {
		over = 0
	}
	return over
}

// measureHeapInvoke measures a local parallel (heap) invocation end to end:
// the caller-side charge plus the scheduler dispatch and reclamation,
// mirroring Table 2's ~130-instruction reference row.
func measureHeapInvoke(mdl *machine.Model, adorn func(core.Config) core.Config) instr.Instr {
	p, measure, _ := buildProgram()
	if err := p.Resolve(core.Interfaces3); err != nil {
		panic(err)
	}
	eng := sim.NewEngine(2)
	rt := core.NewRT(eng, mdl, p, adorn(core.ParallelOnly()))
	rec := &recorder{}
	self := rt.Node(0).NewObject(rec)
	rec.remoteObj = rt.Node(1).NewObject(&cell{v: 9})
	rec.lockObj = rt.Node(0).NewObject(nil)
	var res core.Result
	rt.StartOn(0, measure, self, &res, core.IntW(int64(scNB)))
	rt.Run()
	if !res.Done {
		panic("overheads: heap scenario did not complete")
	}
	// The recorded span covers the caller side (checks, context allocation,
	// enqueue); the callee side (dispatch, body call, reclamation) happens
	// after the measuring window closes, so it is added from the model.
	return rec.over[scNB] - mdl.CCall + mdl.Dequeue + mdl.CCall + mdl.CtxFree
}
