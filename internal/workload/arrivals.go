package workload

import (
	"math/rand"
	"time"
)

// maxGapSeconds clamps any single interarrival gap to one virtual hour so a
// pathological draw cannot stall a run.
const maxGapSeconds = 3600.0

// interarrival draws one exponential gap (a Poisson process, one variate per
// arrival) at mean event rate (events per second), idling for an hour when
// the phase offers no load.
func interarrival(rng *rand.Rand, rate float64) time.Duration {
	if rate <= 0 {
		return time.Hour // effectively idle
	}
	gap := rng.ExpFloat64() / rate
	if gap > maxGapSeconds {
		gap = maxGapSeconds
	}
	return time.Duration(gap * float64(time.Second))
}
