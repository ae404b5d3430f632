package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"smartconf"
	"smartconf/internal/chaos"
	"smartconf/internal/core"
	"smartconf/internal/llmserve"
	"smartconf/internal/memsim"
	"smartconf/internal/proptest"
	"smartconf/internal/sim"
	"smartconf/internal/workload"
)

// LLM-KV: the paper's thesis carried into LLM inference serving.
// max.num.batched.tokens bounds the continuous batch; every resident token
// pins KV-cache bytes on the GPU heap, so the bound indirectly caps memory
// (hard no-OOM constraint) — but admission counts PROMPT tokens only
// (output lengths are unknowable in advance), so the memory a setting
// implies depends on the workload's output/prompt ratio. Chat traffic
// (short prompts, long answers) triples a batch's footprint as it decodes;
// long-document summarization (huge prompts, short summaries) barely grows
// it. No static setting fits both: one sized for chat bursts idles most of
// the KV budget once documents arrive, one sized for documents OOMs under
// chat. SmartConf controls the deputy (KV resident bytes) directly and
// re-converges across the shift.
//
// A second knob rides along: admission.queue.limit bounds the waiting
// queue, trading rejected requests against time-to-first-token — a DIRECT
// soft-goal configuration, like the SLA extension.

const (
	llmRunTime    = 600 * time.Second
	llmPhaseShift = 300 * time.Second // chat → long-document summarization

	// A 16 GiB-class accelerator; the operator's memory goal sits just under
	// capacity, as in the RPC scenarios.
	llmHeapCapacity = int64(16) << 30
	llmMemoryGoal   = int64(15) << 30
	// llmNoiseMax bounds the random-walk footprint of "other allocations"
	// (graph captures, sampling buffers, fragmentation).
	llmNoiseMax = 128 * mb

	llmBurstEvery  = 25 * time.Second
	llmSenseEvery  = 15 * time.Second // the memory controller's cadence (see newLLMKVRig)
	llmTTFTGoalSec = 20.0             // soft TTFT-p95 goal for admission.queue.limit

	llmProfileTime     = 70 * time.Second
	llmTTFTProfileTime = 100 * time.Second

	// Profiling runs offline on a machine without the production memory
	// budget (§6.1 profiles settings that would be unsafe in production), so
	// the heap→setting relation is measured unclipped.
	llmProfileHeap int64 = 64 << 30
)

func llmConfig() llmserve.Config { return llmserve.DefaultConfig() }

// llmKVPerToken is the deputy unit conversion: the knob is in tokens, the
// deputy (and the profile) in KV bytes.
func llmKVPerToken() int64 { return llmConfig().KVBytesPerToken }

func llmPhases() []workload.LLMPhase {
	return []workload.LLMPhase{
		{
			// Sustained chat overload: short questions, long answers. Every
			// admitted prompt token triples as its answer decodes, so a batch
			// bound sized for documents fills the heap 2-3× over here.
			Name: "chat", Duration: llmPhaseShift,
			RequestsPerSec: 60, PromptMean: 150, OutputMean: 300,
			BurstSize: 60, BurstSpacing: 50 * time.Millisecond,
		},
		{
			Name:           "summarize",
			RequestsPerSec: 12, PromptMean: 1800, OutputMean: 220,
		},
	}
}

// llmProfilePhase is the load ProfileLLMKV pins each setting under:
// chat-shaped and saturating — offered load exceeds service capacity at
// every pinned setting, so the admitted prompts actually fill the bound.
func llmProfilePhase() workload.LLMPhase {
	return workload.LLMPhase{Name: "profiling", RequestsPerSec: 80, PromptMean: 150, OutputMean: 300}
}

// llmProfileSettings are the max.num.batched.tokens values ProfileLLMKV pins.
func llmProfileSettings() []float64 { return []float64{16384, 32768, 49152, 65536} }

// describeLLMPhase renders a phase for the scenario descriptor, from the
// same values the runs use.
func describeLLMPhase(ph workload.LLMPhase) string {
	d := fmt.Sprintf("%s: %g req/s, %d/%d tok", ph.Name, ph.RequestsPerSec, ph.PromptMean, ph.OutputMean)
	if ph.BurstSize > 0 {
		return d + fmt.Sprintf(", +%d-request bursts every %v", ph.BurstSize, llmBurstEvery)
	}
	return d + ", sustained"
}

// llmDrive starts Poisson arrivals (with the phase switcher) and the burst
// loop against the server. Phases are read through the slice on every
// arrival, so a plant shift may rewrite them mid-run; every burst scales by
// env's surge factor (nil: none).
func llmDrive(s *sim.Simulation, sv *llmserve.Server, phases []workload.LLMPhase, seed int64, until time.Duration, env *chaos.Env) {
	gen := workload.NewLLMGen(seed, phases[0])
	var arrive func()
	arrive = func() {
		if s.Now() >= until {
			return
		}
		if ph, _ := workload.LLMPhaseAt(phases, s.Now()); ph.Name != gen.Phase().Name {
			gen.SetPhase(ph)
		}
		sv.Offer(gen.NextRequest())
		s.After(gen.NextInterarrival(), arrive)
	}
	s.After(0, arrive)

	// Bursts fire on a fixed cadence but only in phases that declare them —
	// chat traffic arrives in waves; document batches trickle steadily.
	burst := newSlotTable(s, func(req workload.LLMRequest) { sv.Offer(req) })
	s.Every(llmBurstEvery, llmBurstEvery, func() bool {
		ph, _ := workload.LLMPhaseAt(phases, s.Now())
		if ph.Name != gen.Phase().Name {
			gen.SetPhase(ph)
		}
		n := int(float64(ph.BurstSize) * env.SurgeFactor())
		for i := 0; i < n; i++ {
			burst.push(gen.NextRequest())
		}
		burst.deliver(ph.BurstSpacing)
		return s.Now() < until
	})
}

// llmkvSpec declares the token-bound controller: the knob in tokens, the
// deputy and the profile in KV bytes (newLLMKVConf scales between them).
func llmkvSpec() smartconf.Spec {
	return smartconf.Spec{
		Name:    "max.num.batched.tokens",
		Metric:  "gpu_memory_consumption",
		Goal:    float64(llmMemoryGoal),
		Hard:    true,
		Initial: 0, // start closed; the controller opens the batch to fit
		Min:     0, Max: float64(llmHeapCapacity),
	}
}

func newLLMKVConf(opts ...smartconf.Option) *smartconf.IndirectConf {
	return mustSynth(smartconf.NewIndirect(llmkvSpec(), publicProfile(ProfileLLMKV()),
		smartconf.Scale(1/float64(llmKVPerToken())), opts...))
}

// llmkvPlant is the LLM-KV substrate on one simulation: the GPU heap, the
// inference server, and the time the heap ran out.
type llmkvPlant struct {
	heap  *memsim.Heap
	sv    *llmserve.Server
	oomAt time.Duration
}

func newLLMKVPlant(s *sim.Simulation) *llmkvPlant {
	p := &llmkvPlant{heap: memsim.NewHeap(llmHeapCapacity)}
	p.sv = llmserve.New(s, p.heap, llmConfig())
	p.heap.OnOOM(func() { p.oomAt = s.Now() })
	return p
}

// sense reads the GPU heap in use and its deputy, the prompt-resident KV
// bytes the token bound caps.
func (p *llmkvPlant) sense() (float64, float64) {
	return float64(p.heap.Used()), float64(p.sv.PromptTokens()) * float64(llmKVPerToken())
}

// ProfileLLMKV profiles the GPU heap against max.num.batched.tokens pinned
// at four settings. Samples are recorded against the setting's KV-byte
// equivalent — the deputy is prompt-resident KV bytes, which the bound caps
// directly — so the fitted slope α is d(heap)/d(prompt bytes). The workload
// is chat-shaped (answers longer than questions) and saturating, so α bakes
// in the decode amplification: every admitted prompt token drags ≈2× its
// size in uncounted decode KV behind it, and the controller's model must
// know that or its corrections overshoot the real heap response.
func ProfileLLMKV() core.Profile {
	return memoProfile("LLMKV", func() core.Profile {
		kvb := float64(llmKVPerToken())
		return profileSweep(llmProfileSettings(), func(setting float64, record func(setting, measurement float64)) {
			s := newScenarioSim()
			rng := rand.New(rand.NewSource(7001))
			heap := memsim.NewHeap(llmProfileHeap)
			sv := llmserve.New(s, heap, llmConfig())
			sv.SetMaxBatchedTokens(int(setting))
			heapNoise(s, heap, rng, llmNoiseMax, llmProfileTime)

			taken := 0
			s.Every(25*time.Second, 4*time.Second, func() bool {
				if taken < 10 {
					record(setting*kvb, float64(heap.Used()))
					taken++
				}
				return taken < 10
			})
			llmDrive(s, sv, []workload.LLMPhase{llmProfilePhase()}, 7002, llmProfileTime, nil)
			s.RunUntil(llmProfileTime)
		})
	})
}

// ProfileLLMKVTTFT profiles TTFT p95 against admission.queue.limit pinned
// at four settings, under a sustained document overload (the regime where
// the waiting queue, and therefore TTFT, actually builds).
func ProfileLLMKVTTFT() core.Profile {
	return memoProfile("LLMKV-TTFT", func() core.Profile {
		return profileSweep([]float64{64, 128, 256, 384}, func(setting float64, record func(setting, measurement float64)) {
			s := newScenarioSim()
			rng := rand.New(rand.NewSource(7003))
			heap := memsim.NewHeap(llmHeapCapacity)
			sv := llmserve.New(s, heap, llmConfig())
			// A modest pinned batch bound keeps service slow so the waiting
			// queue — not the batch — is the binding resource.
			sv.SetMaxBatchedTokens(16384)
			sv.SetWaitingLimit(int(setting))
			heapNoise(s, heap, rng, llmNoiseMax, llmTTFTProfileTime)

			taken := 0
			s.Every(40*time.Second, 6*time.Second, func() bool {
				if taken < 10 {
					record(setting, sv.TTFT().Percentile(95).Seconds())
					taken++
				}
				return taken < 10
			})
			llmDrive(s, sv, []workload.LLMPhase{
				{Name: "profiling", RequestsPerSec: 30, PromptMean: 1500, OutputMean: 200},
			}, 7004, llmTTFTProfileTime, nil)
			s.RunUntil(llmTTFTProfileTime)
		})
	})
}

// RunLLMKV executes the two-phase evaluation under the given policy.
// Static policies pin max.num.batched.tokens and keep the default
// admission.queue.limit; SmartConf controls both knobs.
func RunLLMKV(p Policy) Result {
	return newLLMKVRig(newScenarioSim(), llmRunTime, 9001, 9002, llmPhases()).runFigure(p, nil)
}

// llmkvChaosPhases is the chaos cell's workload. Chat runs at 40 req/s (the
// figure scenario's 60 req/s overload runs the heap at ~99% of capacity — no
// margin left for injected faults; chaos stresses the controller, not the
// margin's exact size). Under plant-shift the cell starts in the benign
// summarize regime, and the shift drops chat on a knob that has opened up
// for documents.
func llmkvChaosPhases(fault string) []workload.LLMPhase {
	if fault == "plant-shift" {
		return []workload.LLMPhase{llmPhases()[1]}
	}
	return []workload.LLMPhase{llmkvChaosChat()}
}

func llmkvChaosChat() workload.LLMPhase {
	return workload.LLMPhase{Name: "chat", RequestsPerSec: 40, PromptMean: 150, OutputMean: 300,
		BurstSize: 40, BurstSpacing: 50 * time.Millisecond}
}

// newLLMKVRig builds the LLM-KV rig on s: the heap noise seeded with
// noiseSeed is its disturbance, and its load is phases (see llmDrive),
// generated from genSeed, until horizon.
func newLLMKVRig(s *sim.Simulation, horizon time.Duration, noiseSeed, genSeed int64, phases []workload.LLMPhase) *rig {
	rng := rand.New(rand.NewSource(noiseSeed))
	p := newLLMKVPlant(s)
	attach := func(tick func()) {
		s.Every(0, llmSenseEvery, func() bool {
			tick()
			return s.Now() < horizon && !p.sv.Crashed()
		})
	}
	return &rig{
		s: s, horizon: horizon,
		smart: func() func(float64) {
			ic := newLLMKVConf()
			// Integration shim, Table 7-countable: sense the heap, read the
			// deputy (prompt-resident KV bytes — the quantity the bound caps),
			// and move the token bound. The §5.3 update starts from the deputy's
			// CURRENT value, so unit drift between the knob and the realized
			// footprint self-corrects. The cadence is deliberately slow: an
			// admitted prompt drags its decode KV in over the next several
			// seconds, and updating faster than that plant delay would integrate
			// against memory that is already committed but not yet visible.
			attach(func() {
				ic.SetPerf(p.sense())               //sc:LLMKV:sensor
				p.sv.SetMaxBatchedTokens(ic.Conf()) //sc:LLMKV:invoke
			})

			qc := mustSynth(smartconf.New(smartconf.Spec{
				Name:    "admission.queue.limit",
				Metric:  "ttft_p95",
				Goal:    llmTTFTGoalSec,
				Hard:    false, // latency SLO: soft
				Initial: float64(llmConfig().WaitingLimit),
				Min:     16, Max: 2048,
			}, publicProfile(ProfileLLMKVTTFT())))
			// A p95 estimate needs a window of first tokens and lags the knob, so
			// this loop runs on the sensor's timescale (cf. the SLA extension).
			s.Every(10*time.Second, 10*time.Second, func() bool {
				qc.SetPerf(p.sv.TTFT().Percentile(95).Seconds()) //sc:LLMKV:sensor
				p.sv.SetWaitingLimit(qc.Conf())                  //sc:LLMKV:invoke
				return s.Now() < horizon && !p.sv.Crashed()
			})
			return nil
		},
		actuate: func(v float64) { p.sv.SetMaxBatchedTokens(int(v)) },
		disturb: func(*chaos.Env) { heapNoise(s, p.heap, rng, llmNoiseMax, horizon) },
		load:    func(env *chaos.Env) { llmDrive(s, p.sv, phases, genSeed, horizon, env) },
		probe: []column{
			{Series{Name: "used_memory", Unit: "bytes"}, func() (float64, bool) { return float64(p.heap.Used()), true }},
			{Series{Name: "max.batched.tokens", Unit: "tokens"}, func() (float64, bool) {
				return min(float64(p.sv.MaxBatchedTokens()), 1e9), true // the unbounded default, kept plottable
			}},
			{Series{Name: "goodput", Unit: "tok/s"}, func() (float64, bool) { return p.sv.Goodput(), true }},
			{Series{Name: "ttft_p95", Unit: "s"}, func() (float64, bool) { return p.sv.TTFT().Snapshot().P95.Seconds(), true }},
			{Series{Name: "completed_requests", Unit: "requests"}, func() (float64, bool) { return float64(p.sv.Completed()), true }},
		},
		more:    func() bool { return s.Now() < horizon && !p.heap.OOM() },
		samples: int(horizon / time.Second),
		judge: func(res *Result) {
			res.Issue, res.TradeoffName, res.HigherIsBetter = "LLMKV", "goodput (output tok/s)", true
			res.Tradeoff = float64(p.sv.OutputTokens()) / horizon.Seconds()
			// The hard constraint is survival: a KV or activation allocation
			// that does not fit kills the server (the production incident).
			// The 15GiB goal below the 16GiB device is the operator's
			// engineered margin — the controller aims at the goal so that
			// transients land in the margin instead of in an OOM.
			res.ConstraintMet = !p.heap.OOM()
			if !res.ConstraintMet {
				res.ViolatedAt, res.Violation = p.oomAt, "OOM"
			}
		},
		cell: func() cellParts {
			return cellParts{
				attach: attach,
				tune:   chaosTune{noise: 0.03, drop: 0.7, delay: 5 * time.Second, stall: 45 * time.Second},
				knobLo: 0, knobHi: float64(llmHeapCapacity) / float64(llmKVPerToken()),
				// Initial-convergence grace (the knob opens from 0 and the
				// first correction overshoots into the engineered margin),
				// then the goal.
				goal:  []proptest.Sample{{T: 0, V: 1e12}, {T: 60 * time.Second, V: float64(llmMemoryGoal)}},
				surge: 2,
				synth: func(opts []smartconf.Option) func(perf, deputy float64) float64 {
					return indirectStep(newLLMKVConf(opts...))
				},
				sense: p.sense,
				// Plant shift: the workload swings from long-document
				// summarization (low decode amplification) into bursty chat
				// (every admitted prompt token drags ~3× its size in
				// uncounted decode KV).
				shift: func(start, _ time.Duration) chaos.Fault {
					return chaos.PlantShift{Label: "decode-amplification", At: start, Apply: func() { phases[0] = llmkvChaosChat() }}
				},
				finish: func(rep *proptest.Report) {
					rep.Progress, rep.Crashed, rep.CrashedAt = p.sv.Completed(), p.heap.OOM(), p.oomAt
				},
			}
		},
	}
}

// LLMKVScenario returns the scenario descriptor. It is an extension beyond
// the paper's six issues, so it is not part of Scenarios(); the bench
// registers it separately.
func LLMKVScenario() Scenario {
	settings := make([]string, 0, 4)
	for _, v := range llmProfileSettings() {
		settings = append(settings, fmt.Sprintf("%gk", v/1024))
	}
	prof, phases := llmProfilePhase(), llmPhases()
	return Scenario{
		ID:                "LLMKV",
		Conf:              "max.num.batched.tokens",
		Description:       "bounds the continuous batch by prompt tokens; too big, KV-cache OOM on long documents; too small, decode parallelism (goodput) hurts",
		Flags:             "N-N-Y",
		ConstraintName:    "GPU memory ≤ 15GiB (hard, no OOM)",
		TradeoffName:      "goodput (output tok/s)",
		HigherIsBetter:    true,
		ProfilingWorkload: describeLLMPhase(prof) + " @ batch " + strings.Join(settings, "/"),
		PhaseWorkloads:    [2]string{describeLLMPhase(phases[0]), describeLLMPhase(phases[1])},
		BuggyDefault:      1e7,   // effectively unbounded: admit whatever arrives
		PatchDefault:      65536, // a "tuned-for-chat" default — still unsafe here
		StaticGrid:        []float64{8192, 12288, 16384, 20480, 24576, 32768, 40960, 49152, 65536, 81920},
		NonOptimal:        8192,
		Run:               RunLLMKV,
	}
}

// BuildFigureLLMKV runs the LLM-KV trade-off comparison (the Figure 5
// methodology on the extension scenario).
func BuildFigureLLMKV() Figure5Row {
	return BuildFigure5Row(LLMKVScenario())
}

// RenderFigureLLMKV formats the comparison plus the SmartConf run's control
// time series (memory, token bound, TTFT p95 — the re-convergence across
// the chat → summarize shift).
func RenderFigureLLMKV(row Figure5Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "LLM-KV: max.num.batched.tokens under a hard GPU-memory goal")
	fmt.Fprintf(&b, "(two-phase workload: %s → %s at t=%v)\n\n",
		llmPhases()[0], llmPhases()[1], llmPhaseShift)
	fmt.Fprintf(&b, "%-22s %14s %9s %12s %10s %5s\n",
		"Policy", "Setting", "Speedup", "tok/s", "TTFT p95", "OK?")
	for _, bar := range row.Bars {
		mark := "ok"
		if !bar.ConstraintMet {
			mark = "X"
		}
		setting := "-"
		if bar.Label != "SmartConf" {
			setting = humanSetting(bar.Setting)
		}
		ttft := "-"
		if s, ok := bar.Result.SeriesByName("ttft_p95"); ok && len(s.Points) > 0 {
			ttft = fmt.Sprintf("%.1fs", s.Points[len(s.Points)-1].V)
		}
		fmt.Fprintf(&b, "%-22s %14s %8.2fx %12.0f %10s %5s\n",
			bar.Label, setting, bar.Speedup, bar.Result.Tradeoff, ttft, mark)
	}
	fmt.Fprintln(&b)
	smart := row.Bars[0].Result
	if mem, ok := smart.SeriesByName("used_memory"); ok {
		fmt.Fprintf(&b, "SmartConf GPU memory (goal %dGiB): %s\n",
			llmMemoryGoal>>30, sparkline(mem, 60, llmRunTime))
	}
	if knob, ok := smart.SeriesByName("max.batched.tokens"); ok {
		fmt.Fprintf(&b, "SmartConf token bound:             %s\n", sparkline(knob, 60, llmRunTime))
	}
	if ttft, ok := smart.SeriesByName("ttft_p95"); ok {
		fmt.Fprintf(&b, "SmartConf TTFT p95 (goal %.0fs):     %s\n", llmTTFTGoalSec, sparkline(ttft, 60, llmRunTime))
	}
	fmt.Fprintf(&b, "(phase shift at %s: chat decode drags ~%.0f× uncounted KV per admitted prompt\n",
		llmPhaseShift, float64(llmPhases()[0].OutputMean+llmPhases()[0].PromptMean)/float64(llmPhases()[0].PromptMean))
	fmt.Fprintln(&b, " token, so the bound opens up once document traffic takes over)")
	return b.String()
}
