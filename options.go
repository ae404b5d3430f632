package smartconf

import "smartconf/internal/declog"

// Option customizes Conf and Manager construction.
type Option func(*options)

type options struct {
	alert          AlertFunc
	alertThreshold int
	trace          TraceFunc
	declog         *declog.Log
	perturb        *declog.Perturb
}

func applyOptions(opts []Option) options {
	o := options{alertThreshold: 10}
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithAlert installs a handler for unreachable-goal alerts: SmartConf calls
// it (on its own goroutine) when a controller has been pinned at an actuator
// bound for WithAlertThreshold consecutive updates while the error
// persisted — the best-effort-plus-alert behaviour of §4.3.
func WithAlert(f AlertFunc) Option {
	return func(o *options) { o.alert = f }
}

// WithAlertThreshold sets how many consecutive saturated updates trigger an
// alert (default 10). Values < 1 are treated as 1.
func WithAlertThreshold(n int) Option {
	return func(o *options) {
		if n < 1 {
			n = 1
		}
		o.alertThreshold = n
	}
}

// WithDecisionLog makes the configuration record every controller decision
// into l (registered under the Spec name). The log is a fixed-capacity,
// zero-allocation ring cheap enough to stay on in production; serialize it
// with declog.Encode and feed the file to cmd/smartconf-replay.
//
// The configuration locks l's mutex in place of its own, so a decision and
// its record are one critical section. Configurations sharing l therefore
// serialize whole decisions (tens of nanoseconds each), not only their
// appends, and a TraceFunc installed on them runs under l's lock: it must
// not call l or any configuration sharing it.
func WithDecisionLog(l *declog.Log) Option {
	return func(o *options) { o.declog = l }
}

// WithPerturb arms a counterfactual decision edit on the synthesized
// controller: from p.FromPeriod onward the pole is pinned and/or the clamp
// bounds are moved. This is the offline replay tool's hook ("what if the
// pole were 0.9 from period k?") — production paths never set it.
func WithPerturb(p declog.Perturb) Option {
	return func(o *options) { o.perturb = &p }
}
