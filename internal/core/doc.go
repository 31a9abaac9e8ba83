// Package core implements the paper's primary contribution: the hybrid
// stack/heap execution model for fine-grained concurrent object-oriented
// programs on distributed-memory machines (Plevyak, Karamcheti, Zhang,
// Chien — SC'95, Section 3).
//
// # Programming model
//
// A program (Program) is a set of methods. Every method invocation is a
// logical thread: it executes against a target object (Ref), produces one
// word (Word) delivered through a future, and synchronizes with its callees
// by touching sets of futures at once. Objects live on exactly one node of
// the simulated machine; references are location independent and the
// runtime performs name translation and locality checks on every
// invocation, charged per the machine model. Methods may acquire their
// target object's implicit lock (Method.Locks), may suspend awaiting
// futures, and may manipulate their reply obligation as a first-class
// continuation (Cont) — storing it, passing it along a tail-forward chain
// (ForwardTail), or capturing it explicitly (CaptureCont).
//
// Method bodies are resumable state machines (BodyFunc): they run from
// fr.PC and return Done, Unwound or Forwarded. This is exactly the shape of
// the C code the Concert compiler emitted; internal/lang provides a small
// source language that compiles to it.
//
// # The hybrid model
//
// Each method conceptually has two versions. The sequential version runs on
// the stack: Invoke on a local, unlocked object calls the callee directly
// with a pool-backed frame, under one of three calling schemas selected by
// interprocedural analysis (internal/analysis):
//
//   - SchemaNB (non-blocking): provably never blocks anywhere in its call
//     subtree; costs a plain call.
//   - SchemaMB (may-block): optimistically runs on the stack; if it must
//     block, its heap context is created lazily, the caller's continuation
//     is linked into it, and the stack unwinds (Unwind), each ancestor
//     reverting to its parallel version.
//   - SchemaCP (continuation-passing): additionally threads caller_info
//     (CallerInfo) so the continuation itself can be created lazily — a
//     forwarded chain that stays local completes entirely on the stack,
//     and only materializes the continuation when it escapes (the three
//     cases of the paper's Section 3.2.3).
//
// The parallel version executes from heap contexts: frames allocated
// up-front (newHeapFrame), scheduled on per-node run queues, suspending
// cheaply on touch sets and resuming when replies determine their futures.
// Remote invocations travel as active messages carrying continuations;
// under the hybrid model arriving requests are executed directly from the
// message buffer by schema-specific wrappers (handleMsg), so even remote
// work usually needs no context. Stack calls, local forwards and wrappers
// all run the sequential version through one helper, runSeq.
//
// The Config chooses between the full hybrid model (DefaultHybrid) and the
// heap-only baseline the paper compares against (ParallelOnly), restricts
// the emitted schema set (Interfaces1/2/3, Table 3), and can attach a
// Tracer.
//
// # Frames
//
// Frame unifies the paper's stack frames and heap contexts: frames are
// always pool-backed structs, so pointers into them (continuations) remain
// valid across promotion; "stack versus heap" is a mode plus a cost
// distinction, exactly mirroring the paper's lazy context allocation. The
// frame pool, the single-assignment future cells, exactly-once replies,
// FIFO lock transfer and zero-leak retirement are all asserted by the
// runtime and its tests.
//
// # Costs and time
//
// Every primitive charges virtual instructions to its node per the machine
// model (internal/machine); the discrete-event engine (internal/sim) turns
// those charges plus network latencies into per-node virtual clocks. All
// results are deterministic functions of the program, placement and
// configuration.
package core
