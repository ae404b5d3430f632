package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"smartconf/internal/declog"
	"smartconf/internal/proptest"
)

// Decision logging must be observation-only: a logged chaos run follows the
// exact trajectory of an unlogged one.
func TestLoggedChaosRunMatchesUnlogged(t *testing.T) {
	plain := RunChaosProperty("HB2149", 3)
	logged, env := RunChaosPropertyLogged("HB2149", 3)
	if err := proptest.Replays(&plain, &logged); err != nil {
		t.Fatalf("logging changed the trajectory: %v", err)
	}
	if env.Total == 0 {
		t.Fatal("logged run captured no decisions")
	}
	if env.Fingerprint != logged.Fingerprint {
		t.Errorf("envelope fingerprint %q != report fingerprint %q", env.Fingerprint, logged.Fingerprint)
	}
}

// Replaying an envelope with zero perturbations must reproduce the logged
// run byte-identically — the tool-level acceptance criterion — and the
// logged bytes themselves are pinned: the chaos fingerprint hashes only the
// metric and knob traces, so a change to what the controllers decide (or to
// when a crash rebuilds them) would otherwise pass unnoticed. The
// crash-restart cell exercises Rebuild and the epoch bump; HB3813's ring
// wraps (4,096 of 10,288 decisions kept).
func TestReplayEnvelopeZeroPerturbationIsByteIdentical(t *testing.T) {
	golden := map[string]string{
		"HB2149": "d150dedff265889fdf9a7632152d55ad901a77a75e8ea4ef50db4e74a9c1def8",
		"HB3813": "4ecf0d33e88b406b5e3b9506c495b214f4e57321e5581465d694521927f71bde",
		"HD4995": "a434ec420e5d836656ad32f5e96536e65c25d1d10459f29cce359db894d8f3f2",
		"LLMKV":  "753dad3d41a90cc062d985b6d79c59743a9e8acb726d443f50f5792db40dd127",
		"MR2820": "426bb193ad7e0c8511027c65bfcfcebe221c4130b5533cd0eae2d83104f2d269",
	}
	for _, sub := range ChaosSubstrates() {
		t.Run(sub, func(t *testing.T) {
			_, env := RunChaosLogged(sub, "crash-restart", ChaosSeed, declog.Perturb{})
			rep2, env2, err := ReplayEnvelope(env, declog.Perturb{})
			if err != nil {
				t.Fatal(err)
			}
			b1, err := declog.Encode(env)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := declog.Encode(env2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b1, b2) {
				t.Fatalf("zero-perturbation replay differs:\n%s\n%s", b1, b2)
			}
			if rep2.Fingerprint != env.Fingerprint {
				t.Errorf("replay fingerprint %q != logged %q", rep2.Fingerprint, env.Fingerprint)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b1)); got != golden[sub] {
				t.Errorf("envelope sha256 %s, recorded %s", got, golden[sub])
			}
		})
	}
}

func TestReplayEnvelopeRejectsUnknownCoordinates(t *testing.T) {
	env := declog.Envelope{Format: declog.FormatVersion, Substrate: "NOPE", Plan: "gen", Capacity: 1}
	if _, _, err := ReplayEnvelope(env, declog.Perturb{}); err == nil {
		t.Error("unknown substrate accepted")
	}
	env = declog.Envelope{Format: declog.FormatVersion, Substrate: "HB3813", Plan: "nope", Capacity: 1}
	if _, _, err := ReplayEnvelope(env, declog.Perturb{}); err == nil {
		t.Error("unknown plan accepted")
	}
	env = declog.Envelope{Format: declog.FormatVersion, Substrate: "HB3813", Plan: "crash-restart", Capacity: 1}
	if err := ValidateEnvelopeRun(env); err != nil {
		t.Errorf("catalog fault rejected: %v", err)
	}
}

// Regression for the crash-resynthesis bugfix: a ControllerCrash plan must
// stamp a new goal epoch, and the rebuilt controller's periods restart at 1.
// LLMKV's 15 s sense cadence keeps the whole run inside the capture ring.
func TestCrashRestartStampsNewEpoch(t *testing.T) {
	_, env := RunChaosLogged("LLMKV", "crash-restart", 1, declog.Perturb{})
	if env.Epoch < 1 {
		t.Fatalf("envelope epoch %d after crash-restart, want >= 1", env.Epoch)
	}
	var pre, post int
	sawRestart := false
	for i, r := range env.Records {
		switch {
		case r.Epoch == 0:
			pre++
		default:
			post++
			if !sawRestart {
				sawRestart = true
				if r.Period != 1 {
					t.Errorf("first post-crash record (index %d) has period %d, want 1", i, r.Period)
				}
			}
		}
	}
	if pre == 0 || post == 0 {
		t.Fatalf("want decisions in both generations, got %d pre-crash, %d post-crash", pre, post)
	}
}

// A perturbed cell is memoized under a key that includes the perturbation:
// repeated builds replay from the cache with the exact fingerprint, and the
// perturbation genuinely changes the run.
func TestCounterfactualChaosCachedAndDistinct(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	p := declog.Perturb{SetPole: true, Pole: 0.95, FromPeriod: 2}
	first := CounterfactualChaos("HB3813", "gen", 3, p)
	base := RunChaosProperty("HB3813", 3)
	_, hits0 := RunCacheStats()
	again := CounterfactualChaos("HB3813", "gen", 3, p)
	if err := proptest.Replays(&first, &again); err != nil {
		t.Fatalf("cached counterfactual diverges: %v", err)
	}
	if _, hits := RunCacheStats(); hits <= hits0 {
		t.Errorf("second counterfactual missed the cache: hits %d -> %d", hits0, hits)
	}
	if first.Fingerprint == base.Fingerprint {
		t.Error("pole perturbation left the trajectory unchanged")
	}
}

func TestRenderCounterfactualsDeterministic(t *testing.T) {
	ResetRunCache()
	defer ResetRunCache()
	_, env := RunChaosLogged("HB2149", "sensor-noise", ChaosSeed, declog.Perturb{})
	base := RunChaosCell(ChaosCell{Substrate: "HB2149", Fault: "sensor-noise", Seed: ChaosSeed})
	perturbs := []declog.Perturb{
		{SetPole: true, Pole: 0.9},
		{SetPole: true, Pole: 0.5, FromPeriod: 10},
	}
	rows, err := RunCounterfactuals(env, perturbs)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderCounterfactuals(env, base, rows)
	if !strings.Contains(out, "pole=0.9") || !strings.Contains(out, "artifact fingerprint") {
		t.Fatalf("artifact missing expected rows:\n%s", out)
	}
	rows2, err := RunCounterfactuals(env, perturbs)
	if err != nil {
		t.Fatal(err)
	}
	if out2 := RenderCounterfactuals(env, base, rows2); out2 != out {
		t.Fatalf("artifact not deterministic:\n%s\n%s", out, out2)
	}
}

// The shadow-logged scale runner must not disturb the raw-speed trajectory:
// its deterministic result equals the plain runner's, while decisions land
// in the ring.
func TestLoggedScaleRunnerIsShadow(t *testing.T) {
	for _, sub := range ScaleSubstrates {
		log := declog.New(256)
		plain := NewScaleRunner(sub)
		logged := NewLoggedScaleRunner(sub, log)
		plain.RunTo(20_000)
		logged.RunTo(20_000)
		if a, b := plain.Result(), logged.Result(); a != b {
			t.Errorf("%s: logged result %+v != plain %+v", sub, b, a)
		}
		if log.Total() == 0 {
			t.Errorf("%s: shadow controller logged no decisions", sub)
		}
	}
}
