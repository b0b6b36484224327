package ssbyz

import "errors"

// Sentinel errors of the facade, matchable with errors.Is. Construction
// and runtime errors of the Engine and its Session and Log handles all
// wrap one of these, so callers branch on the class — a parameter
// outside the paper's model, a stopped engine, an exhausted footnote-9
// slot budget — without parsing messages.
var (
	// ErrBadParams reports a configuration outside the paper's model —
	// above all the n > 3f resilience precondition Byzantine agreement
	// requires, but also malformed delays, workloads, or an operation the
	// selected runtime cannot perform.
	ErrBadParams = errors.New("ssbyz: bad parameters")
	// ErrStopped reports an operation against an engine or cluster that
	// already ran or was stopped — the self-stabilizing protocol keeps
	// dense timer traffic alive until teardown, so a stopped runtime
	// accepts nothing further.
	ErrStopped = errors.New("ssbyz: engine stopped")
	// ErrSessionLimit reports exhaustion of the configured concurrent
	// agreement sessions: the footnote-9 extension multiplexes a fixed
	// number of indexed invocations per General, and each one applies the
	// sending-validity criteria IG1–IG3 independently.
	ErrSessionLimit = errors.New("ssbyz: concurrent session limit reached")
)
