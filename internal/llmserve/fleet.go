package llmserve

import (
	"math"

	"smartconf/internal/workload"
)

// Fleet surface: what internal/cluster needs to route to, kill, and restart
// this server as one member of an N-wide fleet. The methods are structural —
// the server does not import cluster — so the substrate stays usable
// standalone.

// SetID assigns the server's stable fleet identity (key-affinity hashes it).
func (sv *Server) SetID(id int) { sv.id = id }

// ID returns the fleet identity.
func (sv *Server) ID() int { return sv.id }

// Alive reports whether the server can accept work: neither crashed (OOM)
// nor down (injected instance loss).
func (sv *Server) Alive() bool { return !sv.crashed && !sv.down }

// Down reports whether the server is killed but restartable.
func (sv *Server) Down() bool { return sv.down }

// Load returns the server's backlog — waiting plus running sequences — the
// signal load-aware routing policies compare.
func (sv *Server) Load() float64 { return float64(sv.WaitingLen() + len(sv.running)) }

// Kill models abrupt process death for fleet chaos: the accelerator heap is
// released in full (base weights, resident KV, in-flight step scratch),
// every waiting and running request is handed to OnEvacuate (the fleet's
// client-retry path, losing its decode progress) or counted dropped, and
// every callback scheduled by this incarnation is invalidated. Unlike
// crash(), which models an OOM'd process that releases nothing, a killed
// process gives its memory back — that is what makes restart possible.
func (sv *Server) Kill() {
	if sv.crashed || sv.down {
		return
	}
	sv.down = true
	sv.epoch++
	held := int64(sv.residentTokens)*sv.cfg.KVBytesPerToken + sv.scratchHeld + sv.cfg.BaseHeapBytes
	for _, s := range sv.waiting.items() {
		sv.evacuateReq(s.req)
		sv.putSeq(s)
	}
	for _, s := range sv.running {
		sv.evacuateReq(s.req)
		sv.putSeq(s)
	}
	sv.waiting.reset()
	sv.prefill.reset()
	clear(sv.running)
	sv.running = sv.running[:0]
	clear(sv.firstTok)
	sv.firstTok = sv.firstTok[:0]
	sv.firstTokDue = 0
	sv.decoders = 0
	sv.retireAt = math.MaxUint64
	sv.residentTokens = 0
	sv.promptTokens = 0
	sv.scratchHeld = 0
	sv.stepping = false
	sv.heap.Free(held)
}

// Restart brings a killed server back as a cold process: weights reloaded,
// empty batch; cumulative counters are observer-side totals and persist
// across incarnations. A crashed (OOM) server stays dead. If the base heap
// no longer fits, the restart itself OOMs.
func (sv *Server) Restart() {
	if sv.crashed || !sv.down {
		return
	}
	if err := sv.heap.Alloc(sv.cfg.BaseHeapBytes); err != nil {
		sv.crashed = true
		return
	}
	sv.down = false
}

func (sv *Server) evacuateReq(req workload.LLMRequest) {
	if sv.OnEvacuate != nil {
		sv.OnEvacuate(req)
		return
	}
	sv.dropped.Inc()
}
