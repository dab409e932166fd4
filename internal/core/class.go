// Package core contains the paper's primary contribution in executable
// form: the communication-class definitions (zero-directional,
// unidirectional, bidirectional — §"Old stuff" definitions retained in the
// appendix of the paper), the machine-checkable unidirectionality predicate
// over recorded executions (UniChecker), and the implication matrix of
// Figure 1 mapping every classification arrow to the construction that
// witnesses it (TestFigure1 in the repository root runs each one).
package core

import "fmt"

// Class is a communication power class from the paper.
type Class int

// Communication classes, ordered by strength.
const (
	// ZeroDirectional: rounds may end with neither of a pair of correct
	// senders having received the other's message (classic asynchrony).
	ZeroDirectional Class = iota + 1
	// Unidirectional: for any pair of correct processes that both send in
	// round r, at least one receives the other's message before its next
	// round (shared-memory trusted hardware).
	Unidirectional
	// Bidirectional: every correct-to-correct round-r message arrives
	// before the receiver's next round (lock-step synchrony).
	Bidirectional
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ZeroDirectional:
		return "zero-directional"
	case Unidirectional:
		return "unidirectional"
	case Bidirectional:
		return "bidirectional"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Subsumes reports whether class c provides at least the guarantee of d
// ("given bidirectional communication we can implement unidirectional
// communication", and unidirectional trivially implements zero-directional;
// both follow directly from the definitions).
func (c Class) Subsumes(d Class) bool { return c >= d }
