package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// LLMRequest is one inference request: a prompt to prefill and a number of
// output tokens to decode. Both counts are fixed at generation time — the
// simulated model "decides" its answer length up front, which keeps runs
// deterministic while preserving the statistical shape real serving systems
// see (they cannot know the output length in advance, which is exactly why
// admission accounting based on prompt tokens alone under-counts).
type LLMRequest struct {
	Prompt int
	Output int
}

// Tokens returns the request's total token footprint once fully decoded.
func (r LLMRequest) Tokens() int { return r.Prompt + r.Output }

// LLMPhase parametrizes one phase of an LLM serving workload: Poisson
// request arrivals with lognormal prompt/output token counts. The chat →
// long-document shift of the LLM-KV scenario is expressed as two phases
// with very different token mixes.
type LLMPhase struct {
	Name string
	// Duration of the phase; the last phase may be 0 (runs to experiment end).
	Duration time.Duration
	// RequestsPerSec is the offered load (Poisson arrivals).
	RequestsPerSec float64
	// PromptMean / OutputMean are the mean token counts; individual draws are
	// lognormal around the mean (σ = tokenSigma) and clamped at 8× it.
	PromptMean int
	OutputMean int
	// BurstSize, when set, superimposes arrival bursts: the scenario driving
	// the phase sends BurstSize extra requests back-to-back (spaced by
	// BurstSpacing) at its own burst period. Bursts are what spike the KV
	// cache of an unbounded continuous batch, like the paper's YCSB bursts
	// spike the RPC queue.
	BurstSize    int
	BurstSpacing time.Duration
}

func (p LLMPhase) String() string {
	return fmt.Sprintf("%s: %.1f req/s, prompt≈%d, output≈%d tok",
		p.Name, p.RequestsPerSec, p.PromptMean, p.OutputMean)
}

// LLMGen generates inference requests for one phase configuration,
// deterministically given a seed.
type LLMGen struct {
	rng            *rand.Rand
	phase          LLMPhase
	prompt, output tokenDist // the phase's token-count distributions
}

// NewLLMGen returns a seeded generator starting in the given phase.
func NewLLMGen(seed int64, phase LLMPhase) *LLMGen {
	g := &LLMGen{rng: rand.New(rand.NewSource(seed))}
	g.SetPhase(phase)
	return g
}

// Phase returns the current phase parameters.
func (g *LLMGen) Phase() LLMPhase { return g.phase }

// SetPhase switches the generator to a new phase (workload shift).
func (g *LLMGen) SetPhase(p LLMPhase) {
	g.phase = p
	g.prompt = newTokenDist(p.PromptMean)
	g.output = newTokenDist(p.OutputMean)
}

// NextInterarrival draws the exponential gap to the next request.
func (g *LLMGen) NextInterarrival() time.Duration {
	return interarrival(g.rng, g.phase.RequestsPerSec)
}

// NextRequest draws the next request's token counts.
func (g *LLMGen) NextRequest() LLMRequest {
	return LLMRequest{
		Prompt: g.prompt.draw(g.rng),
		Output: g.output.draw(g.rng),
	}
}

// tokenSigma is the lognormal spread of every token count, roughly that of
// production chat traces.
const tokenSigma = 0.5

// tokenDist is a lognormal token-count distribution with a given mean. Its
// location parameter is mean-corrected (µ = ln m − σ²/2) so the arithmetic
// mean of the draws matches the configured mean; µ is computed once per
// phase, not per draw.
type tokenDist struct {
	fixed bool // a non-positive mean: every draw is 1 and uses no randomness
	mu    float64
	max   int // the clamp (a context-window limit): 8× the mean
}

// newTokenDist returns the distribution for a phase's mean.
func newTokenDist(mean int) tokenDist {
	if mean <= 0 {
		return tokenDist{fixed: true}
	}
	return tokenDist{mu: math.Log(float64(mean)) - tokenSigma*tokenSigma/2, max: 8 * mean}
}

// draw samples one token count, clamped to [1, max].
func (d *tokenDist) draw(rng *rand.Rand) int {
	if d.fixed {
		return 1
	}
	n := int(math.Round(math.Exp(d.mu + tokenSigma*rng.NormFloat64())))
	if n < 1 {
		n = 1
	}
	if n > d.max {
		n = d.max
	}
	return n
}

// LLMPhaseAt selects the active phase from a schedule at virtual time now,
// with the same semantics as PhaseAt: each phase runs for its Duration, a
// zero-duration phase is terminal, and the boolean reports whether the
// schedule is exhausted.
func LLMPhaseAt(phases []LLMPhase, now time.Duration) (LLMPhase, bool) {
	var elapsed time.Duration
	for _, p := range phases {
		if p.Duration == 0 || now < elapsed+p.Duration {
			return p, true
		}
		elapsed += p.Duration
	}
	if len(phases) == 0 {
		return LLMPhase{}, false
	}
	return phases[len(phases)-1], false
}
