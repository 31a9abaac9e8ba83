// Package concert is a Go reproduction of the hybrid execution model for
// fine-grained concurrent languages of Plevyak, Karamcheti, Zhang and Chien
// (SC'95), the execution core of the Illinois Concert system.
//
// Fine-grained concurrent object-oriented programs treat every method
// invocation as a logical thread. The hybrid model makes that affordable by
// keeping two execution strategies and choosing between them dynamically,
// per invocation, based on where the data actually is at run time:
//
//   - sequential execution on the stack: a local, unlocked target is
//     speculatively invoked like an ordinary function call (with a
//     hierarchy of calling schemas — Non-blocking, May-block,
//     Continuation-passing — selected per method by interprocedural
//     analysis);
//   - parallel execution from heap contexts: when a call would block (a
//     remote target, a held lock, an undetermined future), the stack
//     invocation unwinds into lazily-created heap activation contexts that
//     suspend cheaply, overlap communication, and resume when their
//     futures are determined.
//
// Programs run on a deterministic discrete-event simulation of a
// distributed-memory multicomputer; cost models for the paper's machines
// (CM-5, T3D, SPARC workstation) convert the execution into virtual time.
//
// A minimal program: define methods as resumable bodies, register them in a
// Program, resolve schemas, build a System over a machine model, place
// objects, and run:
//
//	prog := concert.NewProgram()
//	// ... prog.Add(&concert.Method{...}) ...
//	prog.Resolve(concert.Interfaces3)
//	sys := concert.NewSystem(concert.CM5(), 64, prog, concert.DefaultHybrid())
//	obj := sys.NewObject(0, myState)
//	res := sys.Start(0, method, obj, concert.IntW(42))
//	sys.MustRun()
//	fmt.Println(res.Val.Int(), sys.Seconds())
//
// See examples/ for complete programs and DESIGN.md for the mapping from
// the paper's mechanisms to this implementation.
package concert

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/instr"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Core type aliases: the public API is the runtime's own vocabulary.
type (
	// Word is the runtime's uniform one-word value representation.
	Word = core.Word
	// Ref is a location-independent global object reference.
	Ref = core.Ref
	// Method describes one method: body, frame sizes, analysis inputs.
	Method = core.Method
	// Frame is one activation (stack frame or heap context).
	Frame = core.Frame
	// Status is a method body's return value (Done/Unwound/Forwarded).
	Status = core.Status
	// CallStatus is Invoke's result (OK/Async/NeedUnwind).
	CallStatus = core.CallStatus
	// Schema is a sequential calling convention (NB/MB/CP).
	Schema = core.Schema
	// SchemaSet restricts which schemas the compiler may emit.
	SchemaSet = core.SchemaSet
	// Config selects hybrid versus parallel-only execution and options.
	Config = core.Config
	// Program is the method registry and analysis unit.
	Program = core.Program
	// RT is the underlying runtime (exposed for advanced use and tests).
	RT = core.RT
	// Result is a root invocation's result sink.
	Result = core.Result
	// Cont is a first-class continuation.
	Cont = core.Cont
	// Model is a machine cost model.
	Model = machine.Model
	// BodyFunc is a resumable method body.
	BodyFunc = core.BodyFunc
	// Faults configures network fault injection (drops, duplicates,
	// reordering, node stalls and brown-outs); install via Config.Faults.
	// Lossy configurations require Config.Reliable.
	Faults = sim.Faults
	// FaultStats counts the faults the network actually injected in a run.
	FaultStats = sim.FaultStats
)

// Status and call-status values, re-exported.
const (
	Done       = core.Done
	Unwound    = core.Unwound
	Forwarded  = core.Forwarded
	OK         = core.OK
	Async      = core.Async
	NeedUnwind = core.NeedUnwind

	SchemaNB = core.SchemaNB
	SchemaMB = core.SchemaMB
	SchemaCP = core.SchemaCP

	Interfaces1 = core.Interfaces1
	Interfaces2 = core.Interfaces2
	Interfaces3 = core.Interfaces3

	// JoinDiscard directs a reply to the caller's join counter.
	JoinDiscard = core.JoinDiscard
)

// NilRef is the absent object reference.
var NilRef = core.NilRef

// Value constructors and mask helpers, re-exported.
func IntW(v int64) Word           { return core.IntW(v) }
func FloatW(f float64) Word       { return core.FloatW(f) }
func BoolW(b bool) Word           { return core.BoolW(b) }
func RefW(r Ref) Word             { return core.RefW(r) }
func Mask(slots ...int) uint64    { return core.Mask(slots...) }
func MaskRange(lo, hi int) uint64 { return core.MaskRange(lo, hi) }

// NewProgram creates an empty method registry.
func NewProgram() *Program { return core.NewProgram() }

// DefaultHybrid is the full hybrid execution model (all three interfaces,
// wrappers on).
func DefaultHybrid() Config { return core.DefaultHybrid() }

// ParallelOnly is the heap-based baseline the paper compares against.
func ParallelOnly() Config { return core.ParallelOnly() }

// Machine models, re-exported.
func CM5() *Model          { return machine.CM5() }
func T3D() *Model          { return machine.T3D() }
func SPARCStation() *Model { return machine.SPARCStation() }

// ModelByName resolves "cm5", "t3d" or "sparc"; nil if unknown.
func ModelByName(name string) *Model { return machine.ByName(name) }

// Network is a topology/contention model for the interconnect; install one
// via Config.Network to replace the flat per-message latency with
// hop-and-link-accurate charges.
type Network = machine.Network

// FatTreeNetwork returns a Config.Network factory building a radix-ary
// fat-tree (folded Clos) over the machine: message latency scales with the
// hop count between source and destination subtrees, and concurrent
// transmissions crossing the same link queue behind each other. radix <= 0
// selects machine.DefaultRadix. The factory shape keeps each run's mutable
// link-contention state private (see Config.Network).
func FatTreeNetwork(model *Model, radix int) func(nodes int) machine.Network {
	return func(nodes int) machine.Network { return machine.NewFatTree(nodes, radix, model) }
}

// System is one simulated machine running one program under one
// execution-model configuration.
type System struct {
	Eng   *sim.Engine
	RT    *core.RT
	Model *Model
	Prog  *Program

	results []*Result
}

// NewSystem builds a machine of `nodes` processors described by model,
// running prog (which must already be Resolved) under cfg. An invalid
// configuration panics with a descriptive error; use NewSystemChecked to
// receive it as an error value instead.
func NewSystem(model *Model, nodes int, prog *Program, cfg Config) *System {
	sys, err := NewSystemChecked(model, nodes, prog, cfg)
	if err != nil {
		panic(err)
	}
	return sys
}

// NewSystemChecked is NewSystem returning configuration mistakes — a nil
// machine model, a negative MigrationPeriod, out-of-range fault
// probabilities, lossy faults without Reliable — as descriptive errors
// before any simulation state is built, instead of panicking mid-run.
func NewSystemChecked(model *Model, nodes int, prog *Program, cfg Config) (*System, error) {
	if err := core.ValidateConfig(model, cfg); err != nil {
		return nil, err
	}
	eng := sim.NewEngine(nodes)
	rt := core.NewRT(eng, model, prog, cfg)
	return &System{Eng: eng, RT: rt, Model: model, Prog: prog}, nil
}

// Nodes returns the machine size.
func (s *System) Nodes() int { return s.Eng.NumNodes() }

// NewObject places state as a new object on node and returns its global
// reference.
func (s *System) NewObject(node int, state any) Ref {
	return s.RT.Node(node).NewObject(state)
}

// State returns the application state of an object (host-side access for
// setup and verification; simulated code goes through the owning node).
// With migration enabled the object may have moved from its birth node;
// StateOf walks forwarding stubs to its current home.
func (s *System) State(ref Ref) any {
	return s.RT.StateOf(ref)
}

// Start seeds a root invocation of m on target (owned by node) and returns
// its result sink. Call before Run; multiple roots are allowed.
func (s *System) Start(node int, m *Method, target Ref, args ...Word) *Result {
	res := &Result{}
	s.results = append(s.results, res)
	s.RT.StartOn(node, m, target, res, args...)
	return res
}

// Run drives the machine to quiescence and returns an error if any root
// invocation failed to complete or frames leaked (a deadlocked program).
func (s *System) Run() error {
	s.RT.Run()
	for i, r := range s.results {
		if !r.Done {
			return fmt.Errorf("concert: root invocation %d did not complete", i)
		}
	}
	return s.RT.CheckQuiescence()
}

// MustRun is Run, panicking on failure.
func (s *System) MustRun() {
	if err := s.Run(); err != nil {
		panic(err)
	}
}

// Time returns the parallel completion time in virtual instructions.
func (s *System) Time() instr.Instr { return s.Eng.MaxClock() }

// Seconds returns the parallel completion time in seconds on the modeled
// machine — the unit the paper's tables report.
func (s *System) Seconds() float64 { return s.Model.Seconds(s.Eng.MaxClock()) }

// Stats returns machine-wide execution-model statistics.
func (s *System) Stats() core.NodeStats { return s.RT.TotalStats() }

// Compiled is a program compiled from mini-language source text (see
// CompileSource).
type Compiled = lang.Compiled

// CompileSource compiles a program written in the bundled fine-grained
// concurrent mini-language (the ICC++/Concert-compiler analog) onto the
// runtime. Resolve the returned program with an interface set before
// running:
//
//	c, err := concert.CompileSource(src)
//	c.Prog.Resolve(concert.Interfaces3)
//	sys := concert.NewSystem(concert.CM5(), 8, c.Prog, concert.DefaultHybrid())
func CompileSource(src string) (*Compiled, error) { return lang.Compile(src) }

// Trace is a bounded buffer of execution-model events; install one via
// Config.Tracer to see every invocation, fallback, suspension and message
// of a run (NewTrace, then e.g. buf.Summary(os.Stdout)).
type Trace = trace.Buffer

// NewTrace creates a trace buffer retaining up to capacity events
// (capacity <= 0 selects a default).
func NewTrace(capacity int) *Trace { return trace.NewBuffer(capacity) }

// Metrics is the observability layer over a run: per-method cycle
// attribution that sums exactly to the node clocks, a critical-path
// profiler, and a Perfetto/Chrome trace_event exporter. Create one with
// NewMetrics, wire it with Metrics.Install(&cfg) before building the
// system, and after the run render m.WriteReport or m.WritePerfetto.
// Observation is passive: the simulated results are identical with
// metrics on or off.
type Metrics = obsv.Metrics

// NewMetrics creates an empty observability registry for one run.
func NewMetrics() *Metrics { return obsv.New() }

// Counters returns machine-wide instruction counters by category.
func (s *System) Counters() instr.Counters { return s.Eng.TotalCounters() }

// Messages returns the total number of messages sent.
func (s *System) Messages() int64 { return s.Eng.TotalMessages() }

// FaultStats returns the machine-wide injected-fault counts (all zero on a
// fault-free network).
func (s *System) FaultStats() FaultStats { return s.Eng.FaultStats() }

// ValidateConfig checks a (model, config) pair without building a system;
// NewSystemChecked calls it for you.
func ValidateConfig(model *Model, cfg Config) error { return core.ValidateConfig(model, cfg) }
