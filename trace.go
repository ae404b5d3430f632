package smartconf

// TraceEvent records one controller decision — the observability hook an
// operator uses to understand WHY a knob moved (the paper's HDFS-4618
// epigraph: "I don't know what idiot set this to that.. oh wait, it was
// me..." — with SmartConf the answer is a controller, and the trace shows
// its reasoning).
type TraceEvent struct {
	// Conf is the configuration's name.
	Conf string
	// Seq numbers the decision (1-based, per configuration).
	Seq int
	// Measured is the sensor reading that drove the decision.
	Measured float64
	// Deputy is the deputy variable's reported value (indirect
	// configurations only; 0 otherwise).
	Deputy float64
	// Value is the setting the controller chose.
	Value float64
	// Target is the effective setpoint (the virtual goal for hard goals).
	Target float64
	// Pole is the pole used for this decision (0 in the danger region).
	Pole float64
	// Saturated reports whether the actuator was pinned at a bound.
	Saturated bool
}

// TraceFunc receives controller decisions. It runs synchronously on the
// caller of Conf/Value, under the configuration's lock, so it must be fast
// and must not call back into the configuration. On a configuration built
// WithDecisionLog that lock is the log's mutex: the hook must not call the
// log or any configuration sharing it either.
type TraceFunc func(TraceEvent)

// WithTrace installs a decision-trace hook on the configurations built with
// this option.
func WithTrace(f TraceFunc) Option {
	return func(o *options) { o.trace = f }
}

// emitTraceLocked is called under c.mu after a controller update.
func (c *Conf) emitTraceLocked(deputy float64) {
	if c.trace == nil {
		return
	}
	c.traceSeq++
	c.trace(TraceEvent{
		Conf:      c.name,
		Seq:       c.traceSeq,
		Measured:  c.pending,
		Deputy:    deputy,
		Value:     c.lastValue,
		Target:    c.ctrl.VirtualTarget(),
		Pole:      c.ctrl.LastPole(),
		Saturated: c.ctrl.SaturatedFor() > 0,
	})
}
