// Package instr defines the virtual-instruction accounting used throughout
// the simulator. The paper reports costs in SPARC instructions (Table 2) and
// execution times derived from them; we keep the same unit. One Instr is one
// machine instruction on the simulated processor; virtual time in seconds is
// Instr / (MHz * 1e6) for a single-issue machine, which is how the machine
// models convert counts to the seconds reported in Tables 3-6.
package instr

// Instr counts virtual machine instructions. It doubles as the simulator's
// unit of virtual time, since the modeled processors are single-issue.
type Instr int64

// Op classifies where instructions were spent. Every runtime primitive
// charges its cost under one of these categories so experiments can report
// breakdowns (e.g. Table 2 separates schema overhead from fallback cost).
type Op uint8

const (
	// OpCall is the base cost of a function call (the "C call" of the paper).
	OpCall Op = iota
	// OpSchema is calling-convention overhead beyond a plain call: extra
	// arguments, returning values through memory, caller_info plumbing.
	OpSchema
	// OpCheck covers name translation, locality checks and lock checks.
	OpCheck
	// OpCtx is heap context allocation, initialization and reclamation.
	OpCtx
	// OpFallback is the cost of unwinding a stack invocation into the heap:
	// saving live state, linking continuations, rescheduling.
	OpFallback
	// OpFuture covers future fills, touches and continuation manipulation.
	OpFuture
	// OpSched is scheduler enqueue/dequeue/dispatch overhead.
	OpSched
	// OpMsg is message send/receive software overhead.
	OpMsg
	// OpMigrate is dynamic-migration overhead: access-counter maintenance,
	// object freeze/serialize/install, forwarding hops and hint updates.
	OpMigrate
	// OpWork is useful application work.
	OpWork
	// OpIdle is processor idle time (waiting for messages). It is time, not
	// executed instructions, but is accounted in the same unit.
	OpIdle

	// NumOps is the number of accounting categories.
	NumOps
)

var opNames = [NumOps]string{
	"call", "schema", "check", "ctx", "fallback",
	"future", "sched", "msg", "migrate", "work", "idle",
}

// String returns the category name.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return "op?"
}

// Counters accumulates instruction counts per category, typically one per
// simulated node.
type Counters [NumOps]Instr

// Add charges n instructions under category op.
func (c *Counters) Add(op Op, n Instr) { c[op] += n }

// Get returns the count charged under op.
func (c *Counters) Get(op Op) Instr { return c[op] }

// Busy returns all executed instructions (everything except idle time).
func (c *Counters) Busy() Instr {
	var t Instr
	for op := Op(0); op < NumOps; op++ {
		if op != OpIdle {
			t += c[op]
		}
	}
	return t
}

// Overhead returns executed instructions that are not useful work.
func (c *Counters) Overhead() Instr { return c.Busy() - c[OpWork] }

// AddAll accumulates other into c, category by category.
func (c *Counters) AddAll(other *Counters) {
	for i := range c {
		c[i] += other[i]
	}
}
