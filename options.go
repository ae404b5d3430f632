package smartconf

// Option customizes Conf and Manager construction.
type Option func(*options)

type options struct {
	alert          AlertFunc
	alertThreshold int
	declog         *DecisionLog
	perturb        *Perturb
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
