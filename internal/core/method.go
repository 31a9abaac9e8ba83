package core

import (
	"fmt"

	"repro/internal/analysis"
)

// BodyFunc is a method body: a resumable state machine executed from fr.PC.
// The same body serves both execution modes; the runtime's invocation paths
// around it realize the paper's separately-specialized parallel and
// sequential versions (and charge their distinct costs). A body must end
// every activation by calling rt.Reply exactly once (possibly indirectly,
// via a forwarded continuation) and returning Done or Forwarded, or by
// returning Unwound after the runtime has parked the frame.
type BodyFunc func(rt *RT, fr *Frame) Status

// Method describes one method of the fine-grained program: its body, frame
// sizes, declared local properties (inputs to the schema analysis), and the
// resolved sequential schema.
type Method struct {
	Name string
	ID   int

	// Body is the general version, used for both stack and heap execution.
	Body BodyFunc

	// NArgs, NLocals and NFutures size the activation frame. None may be
	// negative, and NFutures is at most 64 (checked by Resolve).
	NArgs    int
	NLocals  int
	NFutures int

	// Locks declares that activations acquire the target object's lock.
	Locks bool

	// Durable declares that activations mutate the target object's
	// checkpointed state. Under checkpointing (Config.CheckpointPeriod > 0)
	// a durable activation's reply is group-committed: held until the
	// backup acknowledges a checkpoint covering the mutation, so no client
	// observes a state a crash can roll back (see recover.go). No effect
	// when checkpointing is off.
	Durable bool

	// MayBlockLocal and Captures are the locally-visible analysis inputs
	// (see internal/analysis).
	MayBlockLocal bool
	Captures      bool

	// Calls and Forwards are the static call-graph edges.
	Calls    []*Method
	Forwards []*Method

	// Required is the schema demanded by the analysis; Emitted is the one
	// actually compiled given the configured interface set. Both are set by
	// Program.Resolve.
	Required Schema
	Emitted  Schema

	// resolvedMayBlock is the transitive may-block property.
	resolvedMayBlock bool
}

// MayBlock reports the transitive may-block property (valid after Resolve).
func (m *Method) MayBlock() bool { return m.resolvedMayBlock }

// maxFutures is the most future slots a method may declare: a frame's fill
// mask and its touch masks are 64-bit words.
const maxFutures = 64

// Program is the registry of methods — the unit the "compiler" operates on.
type Program struct {
	methods  []*Method
	resolved bool
}

// NewProgram creates an empty program.
func NewProgram() *Program { return &Program{} }

// Add registers a method and assigns its ID. Adding after Resolve panics.
func (p *Program) Add(m *Method) *Method {
	if p.resolved {
		panic("core: Program.Add after Resolve")
	}
	m.ID = len(p.methods)
	p.methods = append(p.methods, m)
	return m
}

// Methods returns the registered methods.
func (p *Program) Methods() []*Method { return p.methods }

// Resolve checks each method's frame shape, runs the interprocedural schema
// analysis (internal/analysis) and fixes each method's Required and Emitted
// schema under the given interface set. It must be called once, before
// execution.
func (p *Program) Resolve(interfaces SchemaSet) error {
	infos := make([]analysis.MethodInfo, len(p.methods))
	for i, m := range p.methods {
		if m.NArgs < 0 || m.NLocals < 0 || m.NFutures < 0 || m.NFutures > maxFutures {
			return fmt.Errorf("core: method %q declares NArgs=%d NLocals=%d NFutures=%d; none may be negative and NFutures is at most %d",
				m.Name, m.NArgs, m.NLocals, m.NFutures, maxFutures)
		}
		info := analysis.MethodInfo{
			Name:          m.Name,
			MayBlockLocal: m.MayBlockLocal || m.Locks,
			Captures:      m.Captures,
		}
		for _, c := range m.Calls {
			if c.ID >= len(p.methods) || p.methods[c.ID] != c {
				return fmt.Errorf("core: method %q calls unregistered method %q", m.Name, c.Name)
			}
			info.Calls = append(info.Calls, c.ID)
		}
		for _, f := range m.Forwards {
			if f.ID >= len(p.methods) || p.methods[f.ID] != f {
				return fmt.Errorf("core: method %q forwards to unregistered method %q", m.Name, f.Name)
			}
			info.Forwards = append(info.Forwards, f.ID)
		}
		infos[i] = info
	}
	props := analysis.Solve(infos)
	for i, m := range p.methods {
		m.resolvedMayBlock = props[i].MayBlock
		switch {
		case props[i].NeedsCont:
			m.Required = SchemaCP
		case props[i].MayBlock:
			m.Required = SchemaMB
		default:
			m.Required = SchemaNB
		}
		m.Emitted = interfaces.Emit(m.Required)
	}
	p.resolved = true
	return nil
}
