package experiments

import (
	"fmt"

	"smartconf"
	"smartconf/internal/declog"
)

// The logged scale runner is how the whole-run benchgate proves the decision
// log is production-cheap: the raw-speed loop runs with a SHADOW controller
// attached — it senses the substrate, computes and clamps a decision, and
// records it into the ring every scaleLogEvery requests, but never actuates.
// The trajectory (and therefore the deterministic ScaleResult) is identical
// to the plain runner's, while the steady-state allocation window must stay
// at zero with logging enabled.

// scaleLogEvery is the shadow controller's sense cadence in requests: ~50
// logged decisions per 50k-request benchgate window — a busier control
// cadence than any real deployment period.
const scaleLogEvery = 1024

type loggedScaleRunner struct {
	inner ScaleRunner
	conf  *smartconf.Conf
	sense func() float64
}

// NewLoggedScaleRunner wraps the named substrate's scale runner with a
// shadow decision-logging controller recording into log.
func NewLoggedScaleRunner(substrate string, log *declog.Log) ScaleRunner {
	inner, sense := newScaleRunner(substrate)
	return &loggedScaleRunner{inner: inner, conf: loggedScaleConf(substrate, log), sense: sense}
}

// loggedScaleConf synthesizes the shadow controller: a plausible linear
// profile and a hard goal, so every Update exercises the full Eq. 2 +
// virtual-goal + clamp + log pipeline. The knob value is read (forcing the
// decision) and discarded.
func loggedScaleConf(substrate string, log *declog.Log) *smartconf.Conf {
	profile := smartconf.NewProfile().
		Add(100, 10, 11, 12).
		Add(200, 20, 21, 22).
		Add(400, 40, 41, 39).
		Add(800, 80, 82, 81)
	conf, err := smartconf.New(smartconf.Spec{
		Name:    "scale." + substrate + ".shadow",
		Metric:  "shadow_load",
		Goal:    50,
		Hard:    true,
		Initial: 400,
		Min:     1, Max: 10_000,
	}, profile, smartconf.WithDecisionLog(log))
	if err != nil {
		panic(fmt.Sprintf("experiments: shadow controller synthesis: %v", err))
	}
	return conf
}

func (r *loggedScaleRunner) RunTo(n int64) {
	for {
		done := r.inner.Result().Requests
		if done >= n {
			return
		}
		target := done + scaleLogEvery
		if target > n {
			target = n
		}
		r.inner.RunTo(target)
		r.conf.SetPerf(r.sense())
		_ = r.conf.Value() // shadow decision: computed, clamped, logged, never actuated
	}
}

func (r *loggedScaleRunner) Result() ScaleResult { return r.inner.Result() }
