package llmserve

import (
	"math"
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/metrics"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// refServer is the eager continuous batcher the decode clock replaced, kept
// as the differential oracle for Server: every step walks the whole batch to
// decode (one heap charge per token), walks it again to prefill, and walks
// it a third time to retire. It has no free lists, snapshot buffers or
// method-value binding — only the scheduling rules, written the obvious way.
// Each step still schedules exactly one retirement event, so the two
// servers' simulations stay in lockstep event for event.
type refServer struct {
	sim  *sim.Simulation
	heap *memsim.Heap
	cfg  Config

	maxBatchedTokens int
	waitingLimit     int

	waiting        []*refSeq
	running        []*refSeq
	residentTokens int
	promptTokens   int

	stepping    bool
	crashed     bool
	down        bool
	epoch       uint64
	scratchHeld int64

	completed, rejected, dropped, evictions, outputTokens metrics.Counter

	goodput   *metrics.Meter
	ttft, e2e *metrics.Latency

	OnEvacuate func(req workload.LLMRequest)
}

type refSeq struct {
	req        workload.LLMRequest
	arrived    time.Duration
	promptDone int
	outputDone int
	kvTokens   int
	inRunning  bool
	ttftSeen   bool
}

func newRefServer(s *sim.Simulation, heap *memsim.Heap, cfg Config) *refServer {
	wl := cfg.WaitingLimit
	if wl < 1 {
		wl = math.MaxInt
	}
	sv := &refServer{
		sim: s, heap: heap, cfg: cfg,
		maxBatchedTokens: math.MaxInt,
		waitingLimit:     wl,
		goodput:          metrics.NewMeter(10 * time.Second),
		ttft:             metrics.NewLatency(1024),
		e2e:              metrics.NewLatency(1024),
	}
	if err := heap.Alloc(cfg.BaseHeapBytes); err != nil {
		sv.crashed = true
	}
	return sv
}

func (sv *refServer) SetMaxBatchedTokens(n int) {
	sv.maxBatchedTokens = max(n, 0)
	sv.kick()
}

func (sv *refServer) SetWaitingLimit(n int) { sv.waitingLimit = max(n, 0) }

func (sv *refServer) Offer(req workload.LLMRequest) bool {
	if sv.crashed || sv.down {
		sv.dropped.Inc()
		return false
	}
	if len(sv.waiting) >= sv.waitingLimit {
		sv.rejected.Inc()
		return false
	}
	sv.waiting = append(sv.waiting, &refSeq{req: req, arrived: sv.sim.Now()})
	sv.kick()
	return true
}

func (sv *refServer) crash() {
	if sv.crashed {
		return
	}
	sv.crashed = true
	sv.dropped.Add(int64(len(sv.waiting) + len(sv.running)))
}

func (sv *refServer) kick() {
	if sv.stepping || sv.crashed || sv.down || len(sv.running)+len(sv.waiting) == 0 {
		return
	}
	sv.stepping = true
	sv.step()
}

func (sv *refServer) step() {
	if sv.crashed {
		sv.stepping = false
		return
	}
	for len(sv.waiting) > 0 {
		s := sv.waiting[0]
		if sv.promptTokens > sv.maxBatchedTokens-s.req.Prompt {
			break
		}
		sv.waiting = sv.waiting[1:]
		sv.promptTokens += s.req.Prompt
		s.inRunning = true
		sv.running = append(sv.running, s)
	}

	batch := append([]*refSeq(nil), sv.running...)
	scheduled := 0
	for _, s := range batch {
		if !s.inRunning || s.promptDone < s.req.Prompt || s.outputDone >= s.req.Output {
			continue
		}
		if !sv.ensureKV(1, s) {
			return
		}
		s.kvTokens++
		sv.residentTokens++
		s.outputDone++
		scheduled++
	}
	budget := sv.cfg.PrefillChunk
	if budget < 1 {
		budget = math.MaxInt
	}
	for _, s := range batch {
		if budget == 0 {
			break
		}
		if !s.inRunning || s.promptDone >= s.req.Prompt {
			continue
		}
		k := min(s.req.Prompt-s.promptDone, budget)
		if !sv.ensureKV(k, s) {
			return
		}
		s.kvTokens += k
		sv.residentTokens += k
		s.promptDone += k
		scheduled += k
		budget -= k
	}
	if scheduled == 0 {
		sv.stepping = false
		return
	}
	scratch := int64(scheduled) * sv.cfg.ScratchBytesPerToken
	if scratch > 0 {
		if err := sv.heap.Alloc(scratch); err != nil {
			sv.crash()
			return
		}
	}
	sv.scratchHeld += scratch
	epoch := sv.epoch
	sv.sim.After(sv.cfg.StepBase+time.Duration(scheduled)*sv.cfg.StepPerToken, func() {
		if sv.epoch == epoch {
			sv.endStep(scratch)
		}
	})
}

func (sv *refServer) endStep(scratch int64) {
	if sv.crashed {
		return
	}
	if scratch > 0 {
		sv.heap.Free(scratch)
	}
	sv.scratchHeld -= scratch
	now := sv.sim.Now()
	var keep []*refSeq
	for _, s := range sv.running {
		if s.outputDone > 0 && !s.ttftSeen {
			s.ttftSeen = true
			sv.ttft.Observe(now - s.arrived)
		}
		if s.promptDone >= s.req.Prompt && s.outputDone >= s.req.Output {
			sv.heap.Free(int64(s.kvTokens) * sv.cfg.KVBytesPerToken)
			sv.residentTokens -= s.kvTokens
			sv.promptTokens -= s.req.Prompt
			sv.completed.Inc()
			sv.outputTokens.Add(int64(s.req.Output))
			sv.goodput.Mark(now, float64(s.req.Output))
			sv.e2e.Observe(now - s.arrived)
			continue
		}
		keep = append(keep, s)
	}
	sv.running = keep
	sv.stepping = false
	sv.kick()
}

func (sv *refServer) ensureKV(tokens int, beneficiary *refSeq) bool {
	need := int64(tokens) * sv.cfg.KVBytesPerToken
	for sv.heap.Available() < need {
		var victim *refSeq
		for i := len(sv.running) - 1; i >= 0; i-- {
			if s := sv.running[i]; s != beneficiary && s.kvTokens > 0 {
				victim = s
				break
			}
		}
		if victim == nil {
			sv.heap.Alloc(need) // records the OOM on the heap
			sv.crash()
			return false
		}
		sv.evict(victim)
	}
	if err := sv.heap.Alloc(need); err != nil {
		sv.crash()
		return false
	}
	return true
}

func (sv *refServer) evict(s *refSeq) {
	for i, r := range sv.running {
		if r == s {
			sv.running = append(sv.running[:i:i], sv.running[i+1:]...)
			break
		}
	}
	sv.heap.Free(int64(s.kvTokens) * sv.cfg.KVBytesPerToken)
	sv.residentTokens -= s.kvTokens
	sv.promptTokens -= s.req.Prompt
	s.kvTokens, s.promptDone, s.outputDone, s.inRunning = 0, 0, 0, false
	sv.evictions.Inc()
	sv.waiting = append([]*refSeq{s}, sv.waiting...)
}

func (sv *refServer) Kill() {
	if sv.crashed || sv.down {
		return
	}
	sv.down = true
	sv.epoch++
	held := int64(sv.residentTokens)*sv.cfg.KVBytesPerToken + sv.scratchHeld + sv.cfg.BaseHeapBytes
	for _, s := range append(sv.waiting, sv.running...) {
		if sv.OnEvacuate != nil {
			sv.OnEvacuate(s.req)
		} else {
			sv.dropped.Inc()
		}
	}
	sv.waiting, sv.running = nil, nil
	sv.residentTokens, sv.promptTokens, sv.scratchHeld = 0, 0, 0
	sv.stepping = false
	sv.heap.Free(held)
}

func (sv *refServer) Restart() {
	if sv.crashed || !sv.down {
		return
	}
	if err := sv.heap.Alloc(sv.cfg.BaseHeapBytes); err != nil {
		sv.crashed = true
		return
	}
	sv.down = false
}
