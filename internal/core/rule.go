package core

import (
	"fmt"

	"repro/internal/trace"
)

// RuleFamily is the kind of compatibility check that reported a
// violation: which two accesses it compared and under which MPI-2.2
// constraint (paper §IV-C-3 and §IV-C-4, Table I).
type RuleFamily uint8

const (
	// RuleNone marks a violation built outside the detectors.
	RuleNone RuleFamily = iota
	// RulePendingBuffer: a local access inside an epoch overlaps a local
	// buffer of an operation still pending in that epoch.
	RulePendingBuffer
	// RuleBufferBuffer: the local buffers of two operations of one epoch
	// overlap, at least one of them written.
	RuleBufferBuffer
	// RuleTargetTarget: two operations of one epoch reach overlapping
	// target bytes and are not compatible there.
	RuleTargetTarget
	// RuleCrossRMA: concurrent operations from different processes
	// overlap in one target window.
	RuleCrossRMA
	// RuleCrossLocal: a local access at the target process overlaps a
	// concurrent remote operation it is not compatible with.
	RuleCrossLocal
	// RuleCrossStore: a local store to an exposed window while a
	// concurrent remote Put or Accumulate updates it, erroneous even
	// without byte overlap.
	RuleCrossStore
)

// BufferRole names the local buffer of an RMA operation a buffer rule
// compared.
type BufferRole uint8

const (
	RoleNone   BufferRole = iota
	RoleOrigin            // read by Put and the accumulates, written by Get
	RoleResult            // written by a fetching atomic at completion
)

func (r BufferRole) String() string {
	switch r {
	case RoleOrigin:
		return "origin"
	case RoleResult:
		return "result"
	}
	return "none"
}

// Rule is the rule that fired for one violation, as data: its family and
// the operands its text names. A and B are the kinds of the violation's
// A and B events; ARole and BRole the buffers of A and B that a
// within-epoch buffer rule compared; Local the access class of B's local
// access in the cross-process local families; Win the window of the
// no-overlap store rule. Fields the family's text does not name stay
// zero, so equal Rules render equal text.
type Rule struct {
	Family       RuleFamily
	A, B         trace.Kind
	ARole, BRole BufferRole
	Local        Op
	Win          int32
}

// String renders the rule text that reports carry in Violation.Rule.
func (r Rule) String() string {
	switch r.Family {
	case RulePendingBuffer:
		return fmt.Sprintf("local %s overlaps the %s buffer of a pending %s in the same epoch", r.B, r.ARole, r.A)
	case RuleBufferBuffer:
		return fmt.Sprintf("%s buffer of %s overlaps the %s buffer of %s within one epoch", r.BRole, r.B, r.ARole, r.A)
	case RuleTargetTarget:
		return fmt.Sprintf("%s and %s to overlapping target regions within one epoch", r.A, r.B)
	case RuleCrossRMA:
		return fmt.Sprintf("concurrent %s and %s from different processes overlap in the target window", r.A, r.B)
	case RuleCrossLocal:
		return fmt.Sprintf("local %s at the target process conflicts with a concurrent remote %s", r.Local, r.A)
	case RuleCrossStore:
		return fmt.Sprintf("local %s to window %d while a concurrent remote %s updates the window (erroneous even without overlap)",
			r.Local, r.Win, r.A)
	}
	return ""
}

// crossLocalRule is the rule a local access of class cls at the target
// process breaks against a concurrent remote operation of kind remote on
// window win: the no-overlap store rule when the Table I cell is Error
// and the footprints do not overlap, the overlap rule otherwise.
func crossLocalRule(remote trace.Kind, cls Op, win int32, noOverlap bool) Rule {
	if noOverlap {
		return Rule{Family: RuleCrossStore, A: remote, Local: cls, Win: win}
	}
	return Rule{Family: RuleCrossLocal, A: remote, Local: cls}
}
