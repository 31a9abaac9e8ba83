package core

// Cont is a continuation: the right to determine one future (paper
// Section 2). Continuations are first-class — they travel in messages,
// can be stored in data structures, and can be forwarded along call chains.
//
// A continuation targets either a future slot of a frame (Fr, Slot) or a
// root Result sink. Slot JoinDiscard means the reply only decrements the
// target frame's join counter. Frame pointers stay valid across promotion
// (frames are pool-backed structs), which is what lets a continuation be
// created lazily for a frame that is still executing on the stack — the
// analogue of the paper's caller_info materialization.
type Cont struct {
	// Fr is the frame whose future this continuation determines; nil for a
	// root sink or a discarded result.
	Fr *Frame
	// Slot is the future slot within Fr, or JoinDiscard.
	Slot int32
	// Node is the node where Fr lives — used to decide whether determining
	// the future requires a reply message.
	Node int32
	// Root, if non-nil, receives the value directly (top-level results).
	Root *Result
}

// IsNil reports whether the continuation discards its value.
func (c Cont) IsNil() bool { return c.Fr == nil && c.Root == nil }

// CallerInfo mirrors the caller_info word of the continuation-passing
// schema (Section 3.2.3): it tells a CP callee how to materialize the
// continuation lazily. Of the three fallback cases it marks the first: the
// continuation was forwarded, so context and continuation both exist.
// Whether the context holding the future exists (the second case) or not
// yet (the third), materializeCont reads from that frame's promoted flag.
type CallerInfo struct {
	// Forwarded: the continuation itself was already created and forwarded
	// (e.g. the invocation arrived in a message); it can simply be
	// extracted (the proxy-context case of Section 3.3).
	Forwarded bool
}

// Result is a top-level result sink for root invocations.
type Result struct {
	Val  Word
	Done bool
}
