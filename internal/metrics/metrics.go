// Package metrics provides the sensor toolkit that feeds SmartConf
// controllers: gauges, counters, windowed throughput meters, and latency
// trackers.
//
// §4.1.1 of the paper: "developers must provide a sensor that measures the
// performance metric M to be controlled" — in MapReduce these are variables
// like MemHeapUsedM and RpcProcessingAvgTime. The types here play that role
// for the simulated substrates. They take virtual timestamps explicitly so
// they work under the discrete-event simulator as well as wall clocks.
package metrics

import (
	"time"

	"smartconf/internal/stat"
)

// Gauge is a point-in-time value (heap bytes used, queue length).
type Gauge struct {
	v float64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.v = v }

// Add increments the gauge value by d (may be negative).
func (g *Gauge) Add(d float64) { g.v += d }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Counter is a monotone event counter.
type Counter struct {
	n int64
}

// Inc adds one event.
func (c *Counter) Inc() { c.n++ }

// Add adds n events; negative n panics.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: negative counter increment")
	}
	c.n += n
}

// Value returns the event count.
func (c *Counter) Value() int64 { return c.n }

// Meter measures event rate over a sliding time window, bucketed to bound
// memory. Use it for throughput sensors (completed ops per second).
type Meter struct {
	window  time.Duration
	bucket  time.Duration
	buckets []meterBucket
}

type meterBucket struct {
	start time.Duration
	count float64
}

// NewMeter returns a meter with the given window, internally bucketed into
// 20 slots (or 1ms minimum).
func NewMeter(window time.Duration) *Meter {
	if window <= 0 {
		panic("metrics: meter window must be positive")
	}
	bucket := window / 20
	if bucket < time.Millisecond {
		bucket = time.Millisecond
	}
	// At most window/bucket+1 buckets are ever live (expire runs on every
	// Mark), so pre-sizing a few past that ceiling means Mark never grows
	// the slice — the meter is allocation-free from its first event.
	return &Meter{window: window, bucket: bucket, buckets: make([]meterBucket, 0, 24)}
}

// Mark records n events at virtual time now.
func (m *Meter) Mark(now time.Duration, n float64) {
	start := now - now%m.bucket
	if len(m.buckets) > 0 && m.buckets[len(m.buckets)-1].start == start {
		m.buckets[len(m.buckets)-1].count += n
	} else {
		m.buckets = append(m.buckets, meterBucket{start: start, count: n})
	}
	m.expire(now)
}

// Rate returns events per second over the window ending at now.
func (m *Meter) Rate(now time.Duration) float64 {
	m.expire(now)
	var total float64
	for _, b := range m.buckets {
		total += b.count
	}
	span := m.window
	if now < m.window {
		span = now // early in the run the window hasn't filled yet
	}
	if span <= 0 {
		return 0
	}
	return total / span.Seconds()
}

// Total returns the raw event count within the window ending at now.
func (m *Meter) Total(now time.Duration) float64 {
	m.expire(now)
	var total float64
	for _, b := range m.buckets {
		total += b.count
	}
	return total
}

func (m *Meter) expire(now time.Duration) {
	cutoff := now - m.window
	// Common case on every Mark: the head bucket is still live, so there is
	// nothing to drop — return before touching the rest of the slice.
	if len(m.buckets) == 0 || m.buckets[0].start+m.bucket > cutoff {
		return
	}
	i := 1
	for i < len(m.buckets) && m.buckets[i].start+m.bucket <= cutoff {
		i++
	}
	m.buckets = append(m.buckets[:0], m.buckets[i:]...)
}

// Latency tracks request latencies: the last sample, a sliding sample window
// for averages and percentiles, and the all-time worst case. The HB2149 and
// HD4995 block-time sensors read Last (the most recent flush block or lock
// hold), not the worst case.
//
// Sensor cost model: controllers read percentiles once per control period
// while the substrate observes a sample per request, so both paths must be
// cheap. Observe is O(1) and allocation-free in every configuration. For
// windows above ExactWindowThreshold the tracker additionally maintains a
// stat.Sketch whose counts follow the live window exactly (each eviction is
// paired with a sketch removal), making Percentile, Snapshot and WindowMax
// O(buckets) bucket scans — within stat.RelativeError of the true
// nearest-rank order statistic — instead of O(n log n) copy-and-sorts. At or
// below the threshold the window is small enough that the exact
// interpolated path is already cheap, and its results stay bit-identical to
// the pre-sketch implementation (small-window goldens are exact by
// construction).
type Latency struct {
	window *stat.Window
	sketch *stat.Sketch // nil when cap ≤ ExactWindowThreshold: exact path
	worst  time.Duration
	last   time.Duration
	count  int64
	sum    time.Duration
}

// ExactWindowThreshold is the window capacity above which Latency switches
// its percentile reads from the exact copy-and-sort path to the streaming
// sketch.
const ExactWindowThreshold = 128

// NewLatency returns a tracker keeping the most recent n samples.
func NewLatency(n int) *Latency {
	l := &Latency{window: stat.NewWindow(n)}
	if n > ExactWindowThreshold {
		l.sketch = stat.NewSketch()
	}
	return l
}

// Observe records one latency sample. O(1), never allocates — this is the
// per-request hot path in every substrate.
func (l *Latency) Observe(d time.Duration) {
	x := d.Seconds()
	evicted, ok := l.window.PushEvict(x)
	if l.sketch != nil {
		l.sketch.Observe(x)
		if ok {
			l.sketch.Remove(evicted)
		}
	}
	if d > l.worst {
		l.worst = d
	}
	l.last = d
	l.count++
	l.sum += d
}

// Last returns the most recent sample (the controller's preferred sensor
// reading: unlike Worst or WindowMax it reflects adjustments immediately).
func (l *Latency) Last() time.Duration { return l.last }

// Mean returns the mean latency over the sample window. O(1) in both modes:
// the window keeps streaming sums, so no samples are walked.
func (l *Latency) Mean() time.Duration {
	return time.Duration(l.window.Mean() * float64(time.Second))
}

// OverallMean returns the mean over all samples ever observed.
func (l *Latency) OverallMean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// Percentile returns the q-th percentile over the sample window (0 when the
// window is empty or q is out of range). Sketch-mode trackers answer from
// the bucket histogram without copying or sorting.
func (l *Latency) Percentile(q float64) time.Duration {
	if l.sketch != nil {
		if q < 0 || q > 100 {
			return 0
		}
		return time.Duration(l.sketch.Quantile(q) * float64(time.Second))
	}
	v, err := stat.Percentile(l.window.Snapshot(), q)
	if err != nil {
		return 0
	}
	return time.Duration(v * float64(time.Second))
}

// WindowMax returns the largest sample currently in the window (within
// stat.RelativeError in sketch mode; exact otherwise).
func (l *Latency) WindowMax() time.Duration {
	if l.sketch != nil {
		return time.Duration(l.sketch.Max() * float64(time.Second))
	}
	return time.Duration(l.window.Max() * float64(time.Second))
}

// Worst returns the all-time maximum latency.
func (l *Latency) Worst() time.Duration { return l.worst }

// Count returns the number of samples ever observed.
func (l *Latency) Count() int64 { return l.count }

// LatencySnapshot is a one-call summary of a Latency tracker. Count and
// Worst are all-time; Mean, P50 and P95 are over the current sample window.
type LatencySnapshot struct {
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	Worst time.Duration
}

// Snapshot returns count, mean, p50, p95 and worst in one call, so
// experiment renderers and CSV writers do not recompute percentiles
// piecemeal from the same window. Sketch-mode trackers read both
// percentiles from one cumulative bucket scan without allocating; exact
// trackers use a single copy and sort (stat.Percentiles).
func (l *Latency) Snapshot() LatencySnapshot {
	snap := LatencySnapshot{
		Count: l.count,
		Mean:  l.Mean(),
		Worst: l.worst,
	}
	if l.sketch != nil {
		p50, p95 := l.sketch.QuantilePair(50, 95)
		snap.P50 = time.Duration(p50 * float64(time.Second))
		snap.P95 = time.Duration(p95 * float64(time.Second))
		return snap
	}
	if ps, err := stat.Percentiles(l.window.Snapshot(), 50, 95); err == nil {
		snap.P50 = time.Duration(ps[0] * float64(time.Second))
		snap.P95 = time.Duration(ps[1] * float64(time.Second))
	}
	return snap
}

// Reset clears the window and worst case (used at phase boundaries when a
// constraint's horizon restarts).
func (l *Latency) Reset() {
	l.window.Reset()
	if l.sketch != nil {
		l.sketch.Reset()
	}
	l.worst = 0
	l.last = 0
	l.count = 0
	l.sum = 0
}
