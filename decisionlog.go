package smartconf

import "smartconf/internal/declog"

// DecisionLog is a fixed-capacity, zero-allocation ring of controller
// decisions: the answer to "who set this knob, and why?". Configurations
// built WithDecisionLog record every decision into it; Snapshot returns the
// surviving decisions oldest-first and Sources names their producers
// (Decision.Source indexes it). All methods are safe for concurrent use.
type DecisionLog = declog.Log

// Decision is one logged controller decision: the producer and its 1-based
// period, the goal epoch, the sensed value, the setpoint error, the pole
// used, the raw Eq. 2 output, the value applied, and why the two differ
// (Clamp).
type Decision = declog.Record

// Perturb is a counterfactual decision edit for WithPerturb: from
// FromPeriod onward, pin the pole and/or move the clamp bounds.
type Perturb = declog.Perturb

// NewDecisionLog returns a log holding the most recent capacity decisions.
// Capacities below 1 are raised to 1.
func NewDecisionLog(capacity int) *DecisionLog { return declog.New(capacity) }

// WithDecisionLog makes the configuration record every controller decision
// into l (registered under the Spec name). The log is cheap enough to stay
// on in production; one log may serve every configuration of a process.
//
// The configuration locks l's mutex in place of its own, so a decision and
// its record are one critical section, and configurations sharing l
// serialize whole decisions (tens of nanoseconds each), not only their
// records. No exported method reaches that mutex, so no caller outside
// this module can hold it.
func WithDecisionLog(l *DecisionLog) Option {
	return func(o *options) { o.declog = l }
}

// WithPerturb arms a counterfactual decision edit on the synthesized
// controller: from p.FromPeriod onward the pole is pinned and/or the clamp
// bounds are moved. This is the offline replay tool's hook ("what if the
// pole were 0.9 from period k?") — production paths never set it.
func WithPerturb(p Perturb) Option {
	return func(o *options) { o.perturb = &p }
}
