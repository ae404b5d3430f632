package llmserve

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"smartconf/internal/memsim"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// The differential oracle: refServer (the eager scheduler) and Server (the
// decode clock) run on separate simulations and heaps, receive the same
// requests, knob moves, kills and restarts, and must agree on every
// observable after every operation and every simulated event.

// diffTick is one unit of virtual time in the differential runs. Steps cost
// diffStepBase + scheduled ticks, so no tick holds more than one event per
// simulation and advancing one tick at a time compares after every event.
const (
	diffTick     = time.Nanosecond
	diffStepBase = 8 * diffTick
	diffDrain    = 1 << 16 // ticks allowed for the final drain
)

// diffConfig decodes the calibration from the input's first four bytes:
// KV heaps of 8–135 tokens (tight enough to preempt), scratch absent half
// the time and otherwise up to a quarter of a KV token (enough to OOM mid
// step), prefill chunks from unlimited to 15 tokens, and waiting limits from
// unbounded to 8.
func diffConfig(b []byte) (Config, int64) {
	cfg := Config{
		KVBytesPerToken:      1 << 10,
		ScratchBytesPerToken: int64(b[1]&3) / 2 * 256,
		BaseHeapBytes:        int64(b[1]>>2&3) << 10,
		StepBase:             diffStepBase,
		StepPerToken:         diffTick,
		PrefillChunk:         int(b[2] % 16),
		WaitingLimit:         int(b[3] % 9),
	}
	return cfg, cfg.BaseHeapBytes + (8+int64(b[0]&127))<<10
}

// diffView is everything the two servers must agree on.
type diffView struct {
	completed, rejected, dropped, evictions, outputTokens int64
	resident, prompt, running, waiting                    int
	crashed, down                                         bool
	used, peak                                            int64
	oom                                                   bool
	now                                                   time.Duration
	events                                                uint64
	pending                                               int
	goodput                                               float64
	ttftCount, e2eCount                                   int64
	ttftLast, ttftMean, ttftWorst                         time.Duration
	e2eLast, e2eMean, e2eWorst                            time.Duration
	evacuated                                             int
}

type diffRun struct {
	rsim, ssim *sim.Simulation
	rheap      *memsim.Heap
	sheap      *memsim.Heap
	ref        *refServer
	sv         *Server
	revac      []workload.LLMRequest
	sevac      []workload.LLMRequest
	now        time.Duration
}

func newDiffRun(cfg Config, capacity int64) *diffRun {
	d := &diffRun{rsim: sim.New(), ssim: sim.New(), rheap: memsim.NewHeap(capacity), sheap: memsim.NewHeap(capacity)}
	d.ref = newRefServer(d.rsim, d.rheap, cfg)
	d.sv = New(d.ssim, d.sheap, cfg)
	d.ref.OnEvacuate = func(r workload.LLMRequest) { d.revac = append(d.revac, r) }
	d.sv.OnEvacuate = func(r workload.LLMRequest) { d.sevac = append(d.sevac, r) }
	return d
}

func (d *diffRun) refView() diffView {
	r := d.ref
	return diffView{
		completed: r.completed.Value(), rejected: r.rejected.Value(), dropped: r.dropped.Value(),
		evictions: r.evictions.Value(), outputTokens: r.outputTokens.Value(),
		resident: r.residentTokens, prompt: r.promptTokens, running: len(r.running), waiting: len(r.waiting),
		crashed: r.crashed, down: r.down,
		used: d.rheap.Used(), peak: d.rheap.Peak(), oom: d.rheap.OOM(),
		now: d.rsim.Now(), events: d.rsim.Events(), pending: d.rsim.Pending(),
		goodput:   r.goodput.Rate(d.rsim.Now()),
		ttftCount: r.ttft.Count(), ttftLast: r.ttft.Last(), ttftMean: r.ttft.Mean(), ttftWorst: r.ttft.Worst(),
		e2eCount: r.e2e.Count(), e2eLast: r.e2e.Last(), e2eMean: r.e2e.Mean(), e2eWorst: r.e2e.Worst(),
		evacuated: len(d.revac),
	}
}

func (d *diffRun) view() diffView {
	sv := d.sv
	return diffView{
		completed: sv.Completed(), rejected: sv.Rejected(), dropped: sv.Dropped(),
		evictions: sv.Evictions(), outputTokens: sv.OutputTokens(),
		resident: sv.ResidentTokens(), prompt: sv.PromptTokens(), running: sv.RunningLen(), waiting: sv.WaitingLen(),
		crashed: sv.Crashed(), down: sv.Down(),
		used: d.sheap.Used(), peak: d.sheap.Peak(), oom: d.sheap.OOM(),
		now: d.ssim.Now(), events: d.ssim.Events(), pending: d.ssim.Pending(),
		goodput:   sv.Goodput(),
		ttftCount: sv.TTFT().Count(), ttftLast: sv.TTFT().Last(), ttftMean: sv.TTFT().Mean(), ttftWorst: sv.TTFT().Worst(),
		e2eCount: sv.E2E().Count(), e2eLast: sv.E2E().Last(), e2eMean: sv.E2E().Mean(), e2eWorst: sv.E2E().Worst(),
		evacuated: len(d.sevac),
	}
}

func (d *diffRun) check(t *testing.T, op int, what string) {
	t.Helper()
	want, got := d.refView(), d.view()
	if want != got {
		t.Fatalf("op %d (%s) diverged at %v:\n  reference %+v\n  server    %+v", op, what, want.now, want, got)
	}
	for i := range d.revac {
		if d.revac[i] != d.sevac[i] {
			t.Fatalf("op %d (%s): evacuee %d is %+v, reference %+v", op, what, i, d.sevac[i], d.revac[i])
		}
	}
}

// advance runs both simulations n ticks, one tick at a time, comparing
// whenever either fired an event.
func (d *diffRun) advance(t *testing.T, op int, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		d.now += diffTick
		rb, sb := d.rsim.Events(), d.ssim.Events()
		d.rsim.RunUntil(d.now)
		d.ssim.RunUntil(d.now)
		if d.rsim.Events() != rb || d.ssim.Events() != sb {
			d.check(t, op, "event")
		}
	}
}

// runDifferential interprets data as a calibration (4 bytes) followed by
// two-byte operations, applies each to both servers, drains them, and
// reports whether the run preempted anything. Operation codes (first byte
// mod 8): 0–2 offer a request (prompt 0–45 and output 0–15 tokens from the
// second byte), 3 moves max.num.batched.tokens (0 parks admission, 255
// reopens it), 4 moves admission.queue.limit, 5 kills, 6 restarts, 7
// advances time 1–256 ticks.
func runDifferential(t *testing.T, data []byte) (preempted bool) {
	t.Helper()
	if len(data) < 4 {
		return false
	}
	cfg, capacity := diffConfig(data)
	d := newDiffRun(cfg, capacity)
	if data[0]&1 == 1 {
		d.sv.Preallocate(int(data[1]) % 64) // capacity only: must not change behaviour
	}
	d.check(t, -1, "start")
	for i, ops := 0, data[4:]; i+1 < len(ops); i += 2 {
		code, arg := ops[i]%8, ops[i+1]
		switch code {
		case 0, 1, 2:
			req := workload.LLMRequest{Prompt: int(arg>>4) * 3, Output: int(arg & 15)}
			if a, b := d.ref.Offer(req), d.sv.Offer(req); a != b {
				t.Fatalf("op %d: Offer(%+v) = %v, reference %v", i/2, req, b, a)
			}
		case 3:
			n := int(arg) * 2
			if arg == 255 {
				n = math.MaxInt
			}
			d.ref.SetMaxBatchedTokens(n)
			d.sv.SetMaxBatchedTokens(n)
		case 4:
			d.ref.SetWaitingLimit(int(arg % 10))
			d.sv.SetWaitingLimit(int(arg % 10))
		case 5:
			d.ref.Kill()
			d.sv.Kill()
		case 6:
			d.ref.Restart()
			d.sv.Restart()
		case 7:
			d.advance(t, i/2, int(arg)+1)
		}
		d.check(t, i/2, "operation")
	}
	for n := 0; n < diffDrain && (d.rsim.Pending() > 0 || d.ssim.Pending() > 0); n++ {
		d.advance(t, -1, 1)
	}
	return d.ref.evictions.Value() > 0
}

// diffSeeds are hand-written inputs covering the regimes the fuzzer must
// keep reaching: a roomy heap with zero-length prompts and outputs, a bound
// parked at 0 and reopened, tight heaps that preempt, scratch OOM, and
// kill/restart with requests in flight.
var diffSeeds = [][]byte{
	// roomy heap, unlimited prefill; empty prompt and/or output mixed in
	{255, 0, 0, 0, 0, 0x00, 1, 0x05, 2, 0x30, 0, 0x47, 7, 60, 1, 0x13, 7, 200},
	// bound parked at 0, requests queue, bound reopens
	{200, 0, 4, 0, 3, 0, 0, 0x34, 1, 0x25, 7, 40, 3, 255, 7, 255},
	// tight heap: decode growth preempts
	{8, 0, 8, 0, 0, 0x4f, 1, 0x5f, 2, 0x3f, 7, 255, 7, 255, 0, 0x2f, 7, 255},
	// scratch OOM: a 21-token prompt's KV fits the 24-token heap, its
	// step scratch does not; the next offer finds the server dead
	{16, 3, 0, 0, 0, 0x75, 1, 0xef, 7, 100},
	// kill with work in flight, restart, serve again
	{100, 4, 3, 5, 0, 0x56, 1, 0x67, 7, 20, 5, 0, 0, 0x11, 6, 0, 0, 0x22, 7, 200},
	// waiting limit 1 refuses, limit 0 refuses all, bound moves mid-run
	{120, 0, 2, 1, 0, 0x33, 1, 0x44, 2, 0x55, 4, 0, 0, 0x12, 3, 20, 7, 100, 4, 9, 0, 0x12, 7, 100},
}

func FuzzLLMServeDifferential(f *testing.F) {
	for _, s := range diffSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runDifferential(t, data)
	})
}

// TestLLMServeDifferentialRandom runs the oracle over seeded random inputs
// drawn like the fuzzer's, and checks that the generator still reaches
// preemption on a meaningful share of them.
func TestLLMServeDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const inputs = 400
	preempted := 0
	for n := 0; n < inputs; n++ {
		data := make([]byte, 4+2*(8+rng.Intn(56)))
		rng.Read(data)
		if runDifferential(t, data) {
			preempted++
		}
	}
	for _, s := range diffSeeds {
		runDifferential(t, s)
	}
	t.Logf("%d/%d random inputs preempted", preempted, inputs)
	if preempted < inputs/10 {
		t.Fatalf("only %d/%d random inputs preempted: the generator no longer stresses the KV heap", preempted, inputs)
	}
}
