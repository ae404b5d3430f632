package rpcserver

import (
	"sort"

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

// Load returns the server's backlog — queued plus in-flight calls — the
// amount ReportLoad keeps in its fleet's running load total.
func (sv *Server) Load() float64 { return float64(sv.QueueLen() + sv.inflightCalls) }

// ReportLoad moves the server's load into total and makes total the target
// of every later change: admission, batch retirement and Kill.
func (sv *Server) ReportLoad(total *int64) {
	load := int64(sv.QueueLen() + sv.inflightCalls)
	*sv.loadTotal -= load
	*total += load
	sv.loadTotal = total
}

// Kill models abrupt process death for fleet chaos: the process releases
// every byte it accounts (base heap, queued and in-flight request payloads,
// undelivered responses), queued and in-flight calls are handed to
// OnEvacuate (the fleet's client-retry path) or counted dropped, and every
// callback scheduled by this incarnation is invalidated. Unlike crash(),
// which models a wedged OOM JVM that releases nothing, a killed process
// gives its memory back — that is what makes restart possible.
func (sv *Server) Kill() {
	if sv.crashed || sv.down {
		return
	}
	sv.down = true
	sv.epoch++
	held := sv.queueBytes + sv.respBytes + sv.cfg.BaseHeapBytes
	for _, c := range sv.queue[sv.queueHead:] {
		sv.evacuate(c.op)
	}
	// Evacuate in-flight batches oldest-dispatch-first: slot indices are
	// reused out of order, so index order would reshuffle the fleet's retry
	// stream relative to the ordered inflight list this table replaced.
	active := make([]int, 0, len(sv.slots))
	for slot, b := range sv.slots {
		if b != nil {
			active = append(active, slot)
		}
	}
	sort.Slice(active, func(i, j int) bool { return sv.slotSeq[active[i]] < sv.slotSeq[active[j]] })
	for _, slot := range active {
		for _, c := range sv.slots[slot] {
			sv.evacuate(c.op)
		}
		sv.releaseSlot(slot)
	}
	*sv.loadTotal -= int64(sv.QueueLen())
	sv.queue = sv.queue[:0]
	sv.queueHead = 0
	sv.queueBytes = 0
	sv.inflightCalls = 0
	sv.respQueue = sv.respQueue[:0]
	sv.respHead = 0
	sv.respBytes = 0
	sv.busy = 0
	sv.draining = false
	sv.heap.Free(held)
}

// Restart brings a killed server back as a cold process: fresh base heap,
// empty queues; cumulative counters are observer-side totals and persist
// across incarnations. A crashed (OOM) server stays dead — that is the hard
// goal's unrecoverable failure, not an operational restart. If the base heap
// no longer fits (the heap filled while the server was down), the restart
// itself OOMs.
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

func (sv *Server) evacuate(op workload.Op) {
	if sv.OnEvacuate != nil {
		sv.OnEvacuate(op)
		return
	}
	sv.dropped.Inc()
}
