// Package llmserve simulates an LLM inference server with continuous
// batching and a KV cache, the modern system where static performance
// configurations hurt most. It is the substrate for the LLM-KV scenario:
//
//   - max.num.batched.tokens — the continuous-batch admission bound, in
//     tokens. Every token resident in the batch pins KV-cache bytes on the
//     simulated GPU heap, so the bound indirectly caps memory: too large
//     risks OOM when the workload shifts to long documents, too small
//     leaves decode parallelism (and therefore goodput) on the table.
//     Exactly HB3813's queue-size trade-off, transplanted to inference.
//   - admission.queue.limit — the waiting-queue bound. Deeper queues accept
//     more work but stretch time-to-first-token; the knob trades rejected
//     requests against TTFT tail latency.
//
// The scheduler is a vLLM-style continuous batcher in virtual time: each
// step decodes one token for every running sequence that has finished its
// prompt, prefills up to PrefillChunk prompt tokens, and costs
// StepBase + StepPerToken × (tokens scheduled this step). Admission counts
// *prompt* tokens only — the server cannot know output lengths in advance,
// so decode growth is invisible to the bound. That under-accounting is what
// makes the knob performance-sensitive rather than a hard resource cap: the
// memory a setting implies is bound × (1 + output/prompt ratio × decode
// progress), and the ratio is a property of the workload. A chat mix
// (short prompts, long answers) roughly triples each admitted token's
// eventual footprint; a summarization mix barely grows it.
//
// Memory model: KV cache is KVBytesPerToken per resident token, allocated
// as tokens enter the batch and freed on completion or eviction. When a KV
// allocation would not fit, the scheduler preempts the newest running
// sequence (recompute-from-scratch, as vLLM does) — but per-step activation
// scratch (ScratchBytesPerToken × scheduled tokens) is allocated mid-kernel
// and cannot wait for preemption: if it does not fit, the process dies.
// That is the OOM the hard memory goal must prevent.
package llmserve

import (
	"math"
	"slices"
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/metrics"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// Config fixes the server's model/hardware parameters.
type Config struct {
	// KVBytesPerToken is the KV-cache footprint of one resident token
	// (2 × layers × kv-heads × head-dim × dtype bytes on real hardware).
	KVBytesPerToken int64
	// ScratchBytesPerToken is the transient activation scratch a step
	// allocates per scheduled token, freed when the step retires. Scratch
	// cannot be satisfied by preemption — a failed scratch allocation
	// crashes the server.
	ScratchBytesPerToken int64
	// BaseHeapBytes is allocated at startup (weights, CUDA context).
	BaseHeapBytes int64
	// StepBase is the fixed per-step launch overhead; StepPerToken is the
	// marginal cost per scheduled token. Step latency is affine:
	// d = StepBase + StepPerToken × scheduled.
	StepBase     time.Duration
	StepPerToken time.Duration
	// PrefillChunk bounds prompt tokens prefetched per step (chunked
	// prefill). Values < 1 mean unlimited.
	PrefillChunk int
	// WaitingLimit is the initial admission.queue.limit (waiting requests);
	// values < 1 mean unbounded.
	WaitingLimit int
}

// DefaultConfig returns the calibration used by the LLM-KV experiments:
// a 16 GiB-class accelerator serving a mid-size model.
func DefaultConfig() Config {
	return Config{
		KVBytesPerToken:      128 << 10, // 128 KiB per resident token
		ScratchBytesPerToken: 32 << 10,
		BaseHeapBytes:        6 << 30, // weights + runtime
		StepBase:             5 * time.Millisecond,
		StepPerToken:         20 * time.Microsecond,
		PrefillChunk:         512,
		WaitingLimit:         512,
	}
}

// seq is one request's life in the server.
type seq struct {
	req        workload.LLMRequest
	arrived    time.Duration
	promptDone int // prompt tokens prefilled so far
	// doneAt is, while decoding, the decode pass that yields the last output
	// token: the tokens decoded so far are derived from it (Server.decoded)
	// rather than counted per pass.
	doneAt   uint64
	decoding bool // past prefill with output left: counted in Server.decoders
	ttftSeen bool
}

// never is the completion key of a sequence that cannot complete at any pass
// yet (still prefilling) and of a vacated slot.
const never = math.MaxUint64

// seqFIFO is a queue of sequences over a reused array: buf[head:] are the
// queued entries. Popping advances head instead of reslicing, so the
// array's capacity is reused and steady-state traffic allocates nothing;
// the dead prefix is reset when empty and compacted when it dominates.
type seqFIFO struct {
	buf  []*seq
	head int
}

func (q *seqFIFO) len() int      { return len(q.buf) - q.head }
func (q *seqFIFO) peek() *seq    { return q.buf[q.head] }
func (q *seqFIFO) items() []*seq { return q.buf[q.head:] }
func (q *seqFIFO) push(s *seq)   { q.buf = append(q.buf, s) }

// pop removes and returns the head.
func (q *seqFIFO) pop() *seq {
	s := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head > 64 && q.head*2 >= len(q.buf) {
		m := copy(q.buf, q.buf[q.head:])
		clear(q.buf[m:])
		q.buf = q.buf[:m]
		q.head = 0
	}
	return s
}

// pushFront returns s to the head.
func (q *seqFIFO) pushFront(s *seq) {
	if q.head > 0 {
		q.head--
		q.buf[q.head] = s
		return
	}
	q.buf = append(q.buf, nil)
	copy(q.buf[1:], q.buf)
	q.buf[0] = s
}

// reset empties the queue, keeping its capacity.
func (q *seqFIFO) reset() {
	clear(q.buf)
	q.buf = q.buf[:0]
	q.head = 0
}

// Server is the simulated inference server.
type Server struct {
	sim  *sim.Simulation
	heap *memsim.Heap
	cfg  Config

	maxBatchedTokens int // max.num.batched.tokens knob
	waitingLimit     int // admission.queue.limit knob

	waiting seqFIFO // the bounded admission queue; evictees rejoin at the head
	// running is the continuous batch in admission order. A sequence keeps its
	// slot until it leaves; leaving vacates the slot (nil) rather than
	// shifting the sequences behind it, and retire compacts the batch once
	// vacated slots outnumber the occupied ones. The last slot is always
	// occupied.
	running []*seq
	vacant  int // vacated slots in running
	// keys holds the completion keys of running's slots, pointer-free, in
	// blocks of blockSlots slots. keys[blocks+i] is the key of slot i: the
	// decode pass at which running[i] completes (doneAt for a decoder, the
	// pass it finished prefill in for a zero-output sequence), or never.
	// keys[b], b < blocks, is the least key of block b. There are
	// blocks·blockSlots slots' keys, at least len(running), and every key
	// past len(running) is never.
	keys   []uint64
	blocks int
	// prefillAt is the slot of the oldest sequence still prefilling, or
	// len(running). Chunked prefill completes prompts in admission order, so
	// every occupied slot below it holds a sequence past prefill, and the
	// prefill pass resumes there.
	prefillAt      int
	residentTokens int // tokens with allocated KV (the deputy, in tokens)
	promptTokens   int // admitted prompt tokens (what the bound counts)

	// The decode clock. clock counts decode passes; every decoding sequence
	// takes one token per pass, so its progress is a function of the clock
	// (seq.doneAt), read only where it matters: preemption, first-token
	// observation and retirement. A pass that fits costs one heap charge for
	// all decoders. retireAt is the least completion key in keys: retire
	// runs only once clock reaches it. firstTok holds the decoders whose
	// first token (TTFT) is still unobserved, admission order; the first
	// firstTokDue of them decode it in the step in flight (the rest finished
	// prefill during it).
	clock       uint64
	decoders    int
	retireAt    uint64
	firstTok    []*seq
	firstTokDue int

	stepping bool
	crashed  bool

	// Raw-speed free lists, keyed to this server (NOT sync.Pool: pool reuse
	// order is scheduler-dependent and would break deterministic replay).
	// seqPool recycles completed sequences so a steady-state request
	// allocates nothing; seqSlab is the unused rest of the last slab of
	// fresh sequences, which a new concurrency high-water mark takes from
	// before allocating another; stepBatch is the reusable snapshot of
	// running the per-sequence decode pass takes (eviction inside ensureKV
	// mutates running mid-loop).
	seqPool   []*seq
	seqSlab   []seq
	stepBatch []*seq

	// stepScratch is the activation scratch of the single in-flight step;
	// endStepArg reads it back instead of closing over it. endStepFn is
	// endStepArg bound once — creating the method value per AfterArg call
	// would allocate.
	stepScratch int64
	endStepFn   func(uint64)

	// Fleet surface (internal/cluster): identity, liveness across injected
	// instance loss, and the scratch bytes held by in-flight steps that Kill
	// must release. epoch invalidates scheduled callbacks from a previous
	// incarnation.
	id          int
	down        bool
	epoch       uint64
	scratchHeld int64

	// loadTotal receives every change of Load() (waiting plus running
	// sequences): the fleet's running total once ReportLoad is called, until
	// then ownLoad, so reporting is one add through a pointer.
	loadTotal *int64
	ownLoad   int64

	completed    metrics.Counter
	rejected     metrics.Counter
	dropped      metrics.Counter // client-visible losses after a crash
	evictions    metrics.Counter
	outputTokens metrics.Counter
	goodput      *metrics.Meter // completed output tokens per second
	ttft         *metrics.Latency
	e2e          *metrics.Latency

	// OnEvacuate, when set, receives every waiting or running request
	// displaced by Kill — the fleet's client-retry path. Without it displaced
	// requests count as dropped.
	OnEvacuate func(req workload.LLMRequest)
}

// New returns a server with both knobs wide open (unbounded batch, the
// waiting limit from cfg) — max.num.batched.tokens at its unsafe
// effectively-unbounded default.
func New(s *sim.Simulation, heap *memsim.Heap, cfg Config) *Server {
	if cfg.KVBytesPerToken <= 0 {
		panic("llmserve: KVBytesPerToken must be positive")
	}
	if cfg.StepBase <= 0 {
		panic("llmserve: StepBase must be positive")
	}
	wl := cfg.WaitingLimit
	if wl < 1 {
		wl = math.MaxInt
	}
	sv := &Server{
		sim:              s,
		heap:             heap,
		cfg:              cfg,
		maxBatchedTokens: math.MaxInt,
		waitingLimit:     wl,
		retireAt:         never,
		blocks:           1,
		goodput:          metrics.NewMeter(10 * time.Second),
		ttft:             metrics.NewLatency(1024),
		e2e:              metrics.NewLatency(1024),
	}
	sv.endStepFn = sv.endStepArg
	sv.loadTotal = &sv.ownLoad
	sv.resetKeys()
	if err := heap.Alloc(cfg.BaseHeapBytes); err != nil {
		sv.crashed = true
	}
	return sv
}

// seqSlabLen is how many fresh sequences one allocation makes.
const seqSlabLen = 64

// getSeq returns a recycled sequence or a fresh one, initialized for req.
func (sv *Server) getSeq(req workload.LLMRequest) *seq {
	var s *seq
	if n := len(sv.seqPool); n > 0 {
		s = sv.seqPool[n-1]
		sv.seqPool[n-1] = nil
		sv.seqPool = sv.seqPool[:n-1]
	} else {
		s = sv.newSeq()
	}
	*s = seq{req: req, arrived: sv.sim.Now()}
	return s
}

// newSeq hands out the next fresh sequence of the current slab, allocating
// a slab of seqSlabLen when it is used up.
func (sv *Server) newSeq() *seq {
	if len(sv.seqSlab) == 0 {
		//smartconf:allow hotalloc -- cold-start pool refill: fires once per seqSlabLen new concurrency high-water marks, then every request recycles
		sv.seqSlab = make([]seq, seqSlabLen)
	}
	s := &sv.seqSlab[0]
	sv.seqSlab = sv.seqSlab[1:]
	return s
}

// putSeq recycles a retired sequence. Callers must hold no other reference.
func (sv *Server) putSeq(s *seq) { sv.seqPool = append(sv.seqPool, s) }

// Preallocate grows the sequence machinery to the given high-water mark:
// seqs recycled sequences in the pool, and matching capacity in the waiting
// queue, the continuous batch and its keys, the first-token list and the
// step snapshot. Wide fleets need this — a member seeing a sliver of
// the fleet's load would otherwise keep setting new concurrency watermarks
// (and allocating for them) for millions of requests, which the whole-run
// zero-allocation gate forbids.
func (sv *Server) Preallocate(seqs int) {
	for len(sv.seqPool) < seqs {
		sv.seqPool = append(sv.seqPool, sv.newSeq())
	}
	sv.waiting.buf = withCap(sv.waiting.buf, seqs)
	sv.running = withCap(sv.running, seqs)
	b := 1
	for b*blockSlots < seqs {
		b *= 2
	}
	sv.keys = withCap(sv.keys, b*(1+blockSlots))
	sv.firstTok = withCap(sv.firstTok, seqs)
	sv.stepBatch = withCap(sv.stepBatch, seqs)
}

// withCap returns b, reallocated if needed to hold n entries.
func withCap[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b
	}
	g := make([]T, len(b), n)
	copy(g, b)
	return g
}

// SetMaxBatchedTokens sets the max.num.batched.tokens knob: admission stops
// while the batch's admitted PROMPT tokens would exceed n. Decode growth is
// not counted — output lengths are unknown at admission — so the resident
// footprint overshoots the bound by the workload's output/prompt ratio
// (§4.2: temporary inconsistency between C and its deputy is tolerated; the
// bound only gates new admissions). Values below zero clamp to zero.
func (sv *Server) SetMaxBatchedTokens(n int) {
	if n < 0 {
		n = 0
	}
	sv.maxBatchedTokens = n
	sv.kick() // a raised bound may unblock a stalled waiting queue
}

// SetWaitingLimit sets the admission.queue.limit knob. Values below zero
// clamp to zero; the bound gates new arrivals only — preempted sequences
// always rejoin the queue.
func (sv *Server) SetWaitingLimit(n int) {
	if n < 0 {
		n = 0
	}
	sv.waitingLimit = n
}

// MaxBatchedTokens returns the current batch-token bound.
func (sv *Server) MaxBatchedTokens() int { return sv.maxBatchedTokens }

// WaitingLimit returns the current admission-queue bound.
func (sv *Server) WaitingLimit() int { return sv.waitingLimit }

// ResidentTokens returns the tokens currently holding KV cache.
func (sv *Server) ResidentTokens() int { return sv.residentTokens }

// PromptTokens returns the batch's admitted prompt tokens — the quantity
// admission compares against the batch bound.
func (sv *Server) PromptTokens() int { return sv.promptTokens }

// WaitingLen returns the admission-queue depth (the admission.queue.limit
// deputy variable).
func (sv *Server) WaitingLen() int { return sv.waiting.len() }

// RunningLen returns the number of sequences in the continuous batch.
func (sv *Server) RunningLen() int { return len(sv.running) - sv.vacant }

// Crashed reports whether the server has died (OOM).
func (sv *Server) Crashed() bool { return sv.crashed }

// Completed returns the number of fully decoded requests.
func (sv *Server) Completed() int64 { return sv.completed.Value() }

// Rejected returns the number of requests refused at admission.
func (sv *Server) Rejected() int64 { return sv.rejected.Value() }

// Dropped returns the number of requests lost to a crashed server.
func (sv *Server) Dropped() int64 { return sv.dropped.Value() }

// Evictions returns the number of preemptions (recompute-from-scratch).
func (sv *Server) Evictions() int64 { return sv.evictions.Value() }

// OutputTokens returns the total output tokens of completed requests — the
// goodput numerator (tokens decoded for work that was later evicted and
// restarted, or lost to a crash, do not count).
func (sv *Server) OutputTokens() int64 { return sv.outputTokens.Value() }

// Goodput returns completed output tokens per second over the trailing
// window.
func (sv *Server) Goodput() float64 { return sv.goodput.Rate(sv.sim.Now()) }

// TTFT returns the time-to-first-token tracker (arrival → first output
// token).
func (sv *Server) TTFT() *metrics.Latency { return sv.ttft }

// E2E returns the end-to-end request latency tracker (arrival → last
// output token).
func (sv *Server) E2E() *metrics.Latency { return sv.e2e }

// Offer submits one request. It returns false when the request is refused
// (waiting queue full) or lost (server crashed).
//
//smartconf:hotpath
func (sv *Server) Offer(req workload.LLMRequest) bool {
	if sv.crashed || sv.down {
		sv.dropped.Inc()
		return false
	}
	if sv.WaitingLen() >= sv.waitingLimit {
		sv.rejected.Inc()
		return false
	}
	sv.waiting.push(sv.getSeq(req))
	*sv.loadTotal++
	sv.kick()
	return true
}

func (sv *Server) crash() {
	if sv.crashed {
		return
	}
	sv.crashed = true
	// A dead process serves nothing; all in-flight and queued work is lost
	// from the clients' perspective.
	sv.dropped.Add(int64(sv.WaitingLen() + sv.RunningLen()))
}

// kick starts the step loop if it is idle and there is work.
func (sv *Server) kick() {
	if sv.stepping || sv.crashed || sv.down {
		return
	}
	if len(sv.running) == 0 && sv.WaitingLen() == 0 {
		return
	}
	sv.stepping = true
	sv.step()
}

// admit moves waiting requests into the batch while their prompts fit under
// the token bound. Prompt tokens only: output lengths are unknown to a real
// server, so decode growth is deliberately not reserved for.
func (sv *Server) admit() {
	for sv.waiting.len() > 0 {
		s := sv.waiting.peek()
		if sv.promptTokens > sv.maxBatchedTokens-s.req.Prompt {
			break // head-of-line blocking, like a real FIFO admission queue
		}
		sv.waiting.pop()
		sv.promptTokens += s.req.Prompt
		if len(sv.running) == sv.blocks*blockSlots {
			sv.makeRoom()
		}
		sv.running = append(sv.running, s)
		if s.req.Prompt <= 0 {
			sv.startDecode(s, len(sv.running)-1)
		}
	}
}

// startDecode moves s, the running sequence in slot i, its prompt fully
// prefilled, into its decode phase: from the next decode pass on, it takes
// one token per pass until its output is done. A sequence with no output to
// decode is complete already: its key is the current pass, so it retires at
// the end of the current step.
func (sv *Server) startDecode(s *seq, i int) {
	key := sv.clock
	if s.req.Output > 0 {
		key += uint64(s.req.Output)
		s.doneAt, s.decoding = key, true
		sv.decoders++
		if !s.ttftSeen {
			sv.firstTok = append(sv.firstTok, s)
		}
	}
	sv.keys[sv.blocks+i] = key
	m := &sv.keys[i/blockSlots]
	*m = min(*m, key)
	sv.retireAt = min(sv.retireAt, key)
}

// decoded returns the output tokens s has decoded. Only decoding sequences
// have any: a sequence leaves the batch (retired or preempted) as its
// decode ends.
func (sv *Server) decoded(s *seq) int {
	if !s.decoding {
		return 0
	}
	return s.req.Output - int(s.doneAt-sv.clock)
}

// kvTokens returns the tokens holding KV cache for s: prompt + decoded.
func (sv *Server) kvTokens(s *seq) int { return s.promptDone + sv.decoded(s) }

// step runs one scheduler iteration: admit, decode one token per running
// sequence, chunk-prefill, then retire after the affine step latency.
func (sv *Server) step() {
	if sv.crashed {
		sv.stepping = false
		return
	}
	sv.admit()

	// Decode: one token for every sequence past prefill. When the whole
	// pass fits in the heap it is one charge and one clock tick; otherwise
	// the decoders claim their tokens one by one, preempting as they go.
	scheduled := 0
	if d := sv.decoders; d > 0 {
		if need := int64(d) * sv.cfg.KVBytesPerToken; sv.heap.Available() >= need {
			if err := sv.heap.Alloc(need); err != nil {
				sv.crash()
				return
			}
			sv.clock++
			sv.residentTokens += d
			scheduled = d
		} else {
			n, ok := sv.decodeEach()
			if !ok {
				return // crashed
			}
			scheduled = n
		}
	}

	// Chunked prefill, admission order, from prefillAt: the prefilling
	// sequences are the occupied slots from there on whose key is never. Every
	// sequence the budget reaches but the last finishes its prompt, so only
	// the oldest is ever part-way through. Decoders listed before it get
	// their first token in this step; those it adds, in the next.
	sv.firstTokDue = len(sv.firstTok)
	budget := sv.cfg.PrefillChunk
	if budget < 1 {
		budget = math.MaxInt
	}
	for budget > 0 && sv.nextPrefill() {
		s := sv.running[sv.prefillAt]
		k := min(s.req.Prompt-s.promptDone, budget)
		if !sv.ensureKV(k, s) {
			return // crashed
		}
		sv.residentTokens += k
		s.promptDone += k
		scheduled += k
		budget -= k
		if s.promptDone < s.req.Prompt {
			break
		}
		sv.startDecode(s, sv.prefillAt)
	}

	if scheduled == 0 {
		// Nothing runnable: the waiting queue is blocked by the token bound.
		// Park; SetMaxBatchedTokens or a new Offer will kick the loop again.
		sv.stepping = false
		return
	}

	// Activation scratch for this step: allocated mid-kernel, cannot be
	// satisfied by preemption. This is where an over-admitted batch dies.
	scratch := int64(scheduled) * sv.cfg.ScratchBytesPerToken
	if scratch > 0 {
		if err := sv.heap.Alloc(scratch); err != nil {
			sv.crash()
			return
		}
	}

	sv.scratchHeld += scratch
	d := sv.cfg.StepBase + time.Duration(scheduled)*sv.cfg.StepPerToken
	// Closure-free retirement: only one step is ever in flight, so its
	// scratch rides in a field and the epoch rides in the event argument.
	sv.stepScratch = scratch
	sv.sim.AfterArg(d, sv.endStepFn, sv.epoch)
}

// nextPrefill advances prefillAt to the oldest sequence still prefilling
// and reports whether there is one. The slots it passes hold decoders, or
// sequences that completed or were preempted.
func (sv *Server) nextPrefill() bool {
	i, keys := sv.prefillAt, sv.keys[sv.blocks:]
	for i < len(sv.running) && (keys[i] != never || sv.running[i] == nil) {
		i++
	}
	sv.prefillAt = i
	return i < len(sv.running)
}

// decodeEach is the decode pass when the batch's tokens do not all fit:
// each decoder, in admission order, claims its token through ensureKV,
// which preempts the newest running sequence until the token fits. It
// returns the tokens decoded, or false after crashing.
func (sv *Server) decodeEach() (int, bool) {
	// Snapshot: eviction inside ensureKV mutates sv.running mid-loop. Every
	// decoder is held at its progress across the clock tick, and the loop
	// below gives each its token explicitly, so its doneAt (and key) ends
	// where it began.
	batch := append(sv.stepBatch[:0], sv.running...)
	sv.stepBatch = batch
	for _, s := range batch {
		if s != nil && s.decoding {
			s.doneAt++
		}
	}
	sv.clock++
	n := 0
	for _, s := range batch {
		if s == nil || !s.decoding { // vacant, prefilling, complete, or preempted this pass
			continue
		}
		if !sv.ensureKV(1, s) {
			return 0, false
		}
		s.doneAt--
		sv.residentTokens++
		n++
	}
	return n, true
}

// endStepArg is the scheduled form of endStep: the argument carries the
// scheduling incarnation's epoch, invalidating callbacks across Kill.
//
//smartconf:hotpath
func (sv *Server) endStepArg(arg uint64) {
	if sv.epoch != arg {
		return
	}
	sv.endStep(sv.stepScratch)
}

// endStep retires a step: frees scratch, records first tokens and
// completions, and chains the next step.
func (sv *Server) endStep(scratch int64) {
	if sv.crashed {
		return // a dead process releases nothing
	}
	if scratch > 0 {
		sv.heap.Free(scratch)
	}
	sv.scratchHeld -= scratch
	now := sv.sim.Now()
	if sv.firstTokDue > 0 {
		sv.observeFirstTokens(now)
	}
	if sv.clock >= sv.retireAt {
		sv.retire(now)
	}
	sv.stepping = false
	sv.kick()
}

// observeFirstTokens records the TTFT of every decoder that decoded its
// first token this step, in admission order (the order the batch holds
// them), and keeps listed those that finished prefill during the step.
func (sv *Server) observeFirstTokens(now time.Duration) {
	for _, s := range sv.firstTok[:sv.firstTokDue] {
		s.ttftSeen = true
		sv.ttft.Observe(now - s.arrived)
	}
	n := copy(sv.firstTok, sv.firstTok[sv.firstTokDue:])
	clear(sv.firstTok[n:])
	sv.firstTok = sv.firstTok[:n]
	sv.firstTokDue = 0
}

// retire releases every sequence whose completion key clock has reached, in
// batch order, and re-derives retireAt. It reads the blocks' least keys and
// scans only the blocks whose least key clock has reached, so a deep batch
// costs a pass over one key in blockSlots plus the blocks that complete
// something. A sequence that stays is neither dereferenced nor moved.
func (sv *Server) retire(now time.Duration) {
	clock, next, done := sv.clock, uint64(never), 0
	n := len(sv.running)
	mins, keys := sv.keys[:(n+blockSlots-1)/blockSlots], sv.keys[sv.blocks:sv.blocks+n]
	for b, m := range mins {
		if m <= clock {
			m = never
			base := b * blockSlots
			for i, k := range keys[base:min(base+blockSlots, n)] {
				if k > clock {
					m = min(m, k)
					continue
				}
				// Complete: release the KV cache, count the goodput.
				s := sv.running[base+i]
				kv := sv.kvTokens(s)
				sv.heap.Free(int64(kv) * sv.cfg.KVBytesPerToken)
				sv.residentTokens -= kv
				sv.promptTokens -= s.req.Prompt
				if s.decoding {
					sv.decoders--
				}
				sv.completed.Inc()
				sv.outputTokens.Add(int64(s.req.Output))
				sv.goodput.Mark(now, float64(s.req.Output))
				sv.e2e.Observe(now - s.arrived)
				sv.putSeq(s)
				sv.running[base+i] = nil
				keys[base+i] = never
				done++
			}
			mins[b] = m
		}
		next = min(next, m)
	}
	*sv.loadTotal -= int64(done)
	sv.vacant += done
	sv.trim()
	if 2*sv.vacant > len(sv.running) {
		sv.compact()
	}
	sv.retireAt = next
}

// blockSlots is the number of slots whose keys share one least key: one
// 64-byte cache line of keys.
const blockSlots = 8

// minKey returns the least of keys, or never if there are none.
func minKey(keys []uint64) uint64 {
	m := uint64(never)
	for _, k := range keys {
		m = min(m, k)
	}
	return m
}

// clearKey sets slot i's key to never and re-derives its block's least key
// and retireAt.
func (sv *Server) clearKey(i int) {
	keys, b := sv.keys[sv.blocks:], i/blockSlots
	keys[i] = never
	sv.keys[b] = minKey(keys[b*blockSlots : (b+1)*blockSlots])
	sv.retireAt = minKey(sv.keys[:sv.blocks])
}

// resetKeys lays the keys out as one block, every key never.
func (sv *Server) resetKeys() {
	sv.keys, sv.blocks = sv.keys[:0], 1
	for range 1 + blockSlots {
		sv.keys = append(sv.keys, never)
	}
}

// trim drops vacant slots from the end of the batch, so that its last slot
// is occupied. Their keys are never already. An empty batch goes back to
// one block: every key is never, so the first block's worth of them serves.
func (sv *Server) trim() {
	n := len(sv.running)
	for n > 0 && sv.running[n-1] == nil {
		n--
	}
	sv.vacant -= len(sv.running) - n
	sv.running = sv.running[:n]
	sv.prefillAt = min(sv.prefillAt, n)
	if n == 0 {
		sv.keys, sv.blocks = sv.keys[:1+blockSlots], 1
	}
}

// makeRoom frees a slot past the end of a batch that fills its blocks: it
// closes the vacant slots if they are at least half the batch, and
// otherwise doubles the blocks. Either way the work is paid for by the
// slots vacated or filled since the last time, so a sequence's share of it
// is constant.
func (sv *Server) makeRoom() {
	if 2*sv.vacant >= len(sv.running) {
		sv.compact()
		return
	}
	b := sv.blocks
	for len(sv.keys) < 2*b*(1+blockSlots) {
		sv.keys = append(sv.keys, never)
	}
	copy(sv.keys[2*b:], sv.keys[b:b+b*blockSlots])
	for j := b; j < 2*b; j++ {
		sv.keys[j] = never // the new blocks are past the batch
	}
	sv.blocks = 2 * b
}

// compact closes the batch's vacant slots, keeping admission order, and
// re-derives every block's least key. A sequence knows no slot of its own,
// so moving it touches only the batch and the keys.
func (sv *Server) compact() {
	keys := sv.keys[sv.blocks:]
	n, at := 0, 0
	for i, s := range sv.running {
		if i == sv.prefillAt {
			at = n
		}
		if s == nil {
			continue
		}
		sv.running[n] = s
		keys[n] = keys[i]
		n++
	}
	if sv.prefillAt == len(sv.running) {
		at = n
	}
	sv.prefillAt = at
	for i := n; i < len(sv.running); i++ {
		keys[i] = never
	}
	for b := range (len(sv.running) + blockSlots - 1) / blockSlots {
		sv.keys[b] = minKey(keys[b*blockSlots : (b+1)*blockSlots])
	}
	clear(sv.running[n:])
	sv.running = sv.running[:n]
	sv.vacant = 0
}

// ensureKV makes room for tokens' KV bytes, preempting the newest running
// sequence (never the beneficiary) until the allocation fits. Returns false
// after crashing the server when no preemption can help.
func (sv *Server) ensureKV(tokens int, beneficiary *seq) bool {
	need := int64(tokens) * sv.cfg.KVBytesPerToken
	for sv.heap.Available() < need {
		victim := sv.evictionVictim(beneficiary)
		if victim < 0 {
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

// evictionVictim returns the slot of the newest running sequence holding
// KV, skipping the sequence the eviction is for, or -1 if there is none.
func (sv *Server) evictionVictim(beneficiary *seq) int {
	for i := len(sv.running) - 1; i >= 0; i-- {
		if s := sv.running[i]; s != nil && s != beneficiary && sv.kvTokens(s) > 0 {
			return i
		}
	}
	return -1
}

// evict preempts the sequence in slot i: vacates the slot, frees its KV,
// resets its progress (recompute-from-scratch, like vLLM's recompute
// preemption), and returns it to the head of the waiting queue.
func (sv *Server) evict(i int) {
	s := sv.running[i]
	sv.running[i] = nil
	sv.clearKey(i)
	sv.vacant++
	sv.trim()
	kv := sv.kvTokens(s)
	if s.decoding {
		s.decoding = false
		sv.decoders--
		if !s.ttftSeen {
			sv.dropFirstTok(s)
		}
	}
	sv.heap.Free(int64(kv) * sv.cfg.KVBytesPerToken)
	sv.residentTokens -= kv
	sv.promptTokens -= s.req.Prompt
	s.promptDone = 0
	sv.evictions.Inc()
	sv.waiting.pushFront(s)
}

// dropFirstTok unlists a preempted decoder whose first token was never
// observed; it is listed again when it next decodes.
func (sv *Server) dropFirstTok(s *seq) {
	i := slices.Index(sv.firstTok, s)
	sv.firstTok = slices.Delete(sv.firstTok, i, i+1)
	if i < sv.firstTokDue {
		sv.firstTokDue--
	}
}
