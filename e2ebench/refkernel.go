package main

import "time"

// The reference kernel measures how fast this host is running right now, so
// time metrics can be reported at a fixed reference speed. The hosts this
// benchmark was calibrated on switch between speed phases (1.5× apart in
// calm periods, far more under contention from other tenants) that show
// neither as steal time nor as load on the sibling vCPU. A loop streaming
// through memory barely notices them; branchy code with a cache-resident
// working set slows with them, as the simulation's request path does. This
// kernel is such a loop: a 4-ary min-heap of event times, popped and
// re-pushed in a steady state like a discrete-event queue, over 32768 keys
// (256 KiB, resident in L2 rather than L1: in an interleaved calibration it
// tracked the hb3813-admit request path with correlation 0.90 against 0.68
// for a 1 KiB heap).
//
// It is frozen: it must not call into the program under test, and changing
// it (or refNominalNs) changes every normalized time the benchmark reports.

// refNominalNs is the reference speed: the kernel's ns/op that a normalized
// time metric is scaled to, near the kernel's speed in the calibration
// hosts' fast phase. Normalized value = raw value × refNominalNs ÷ the
// kernel's ns/op measured next to it.
const refNominalNs = 165.0

const (
	refHeapSize = 1 << 15 // 256 KiB of keys
	refOps      = 6144    // ops per measurement: ~1-1.5 ms
)

// refHeap is built on first use and keeps its state between measurements,
// so each measurement is the same steady-state loop.
var refHeap = newRefHeap()

type refKernelHeap struct {
	a    []uint64
	n    int
	x    uint64 // xorshift state
	sink uint64 // keeps the loop's result observable
}

func newRefHeap() *refKernelHeap {
	h := &refKernelHeap{a: make([]uint64, refHeapSize), x: 0x9e3779b97f4a7c15}
	for i := 0; i < refHeapSize; i++ {
		h.push(h.next() & 0xffffff)
	}
	return h
}

func (h *refKernelHeap) next() uint64 {
	h.x ^= h.x << 13
	h.x ^= h.x >> 7
	h.x ^= h.x << 17
	return h.x
}

func (h *refKernelHeap) push(v uint64) {
	i := h.n
	h.n++
	h.a[i] = v
	for i > 0 {
		p := (i - 1) / 4
		if h.a[p] <= h.a[i] {
			break
		}
		h.a[p], h.a[i] = h.a[i], h.a[p]
		i = p
	}
}

func (h *refKernelHeap) pop() uint64 {
	top := h.a[0]
	h.n--
	h.a[0] = h.a[h.n]
	i := 0
	for {
		c := 4*i + 1
		if c >= h.n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < h.n; j++ {
			if h.a[j] < h.a[m] {
				m = j
			}
		}
		if h.a[i] <= h.a[m] {
			break
		}
		h.a[i], h.a[m] = h.a[m], h.a[i]
		i = m
	}
	return top
}

// refKernelNs runs the kernel once and returns its ns per pop+push.
func refKernelNs() float64 {
	h := refHeap
	start := time.Now()
	for i := 0; i < refOps; i++ {
		h.push(h.pop() + h.next()&0xffffff)
	}
	elapsed := time.Since(start)
	h.sink += h.a[0]
	return float64(elapsed.Nanoseconds()) / refOps
}
