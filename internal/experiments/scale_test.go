package experiments

import (
	"testing"

	"smartconf/internal/declog"
)

// scaleTable300k is the -scale table at 300,000 requests per substrate, as
// the static-knob runners rendered it before the shadow controller rode
// every run. 300k is a round count at which every row does its
// characteristic work: dfs starts its first content summary at write
// 200,000 and fires its only events then (none at 50k, 100k or 250k),
// mapred runs 1,172 whole jobs and kv flushes.
const scaleTable300k = `substrate     requests    completed       events   events/req   peak pending   virtual time  virtual req/s
rpc            300000       299864       328543        1.095              9             7s          40039
llm            300000       299974        65956        0.220              1          2m30s           2001
kv             300000       298060          118        0.000              1            30s          10010
dfs            300000       259966            2        0.000              1            30s           9965
mapred         300032       300032      2588948        8.629              9      52h24m52s              2
fleetrpc       300000       299903       544030        1.813             95             7s          40039
fleetllm       300000       299979      1443459        4.812             41          2m30s           2001
`

// TestScaleTablePinned renders all seven -scale rows at 300k requests and
// compares them with the recorded static-knob table, byte for byte. Every
// run carries a shadow controller, so equal rows show that it never
// actuates; its log must still hold decisions.
func TestScaleTablePinned(t *testing.T) {
	const requests = 300_000
	results := make([]ScaleResult, 0, len(ScaleSubstrates))
	for _, sub := range ScaleSubstrates {
		log := declog.New(DeclogCapacity)
		r := NewScaleRunner(sub, log)
		r.RunTo(requests)
		if log.Total() == 0 {
			t.Errorf("%s: shadow controller logged no decisions", sub)
		}
		results = append(results, r.Result())
	}
	if got := RenderScale(results); got != scaleTable300k {
		t.Errorf("-scale table at %d requests drifted:\n--- got ---\n%s--- want ---\n%s", requests, got, scaleTable300k)
	}
}

func TestNewScaleRunnerPanicsOnUnknownSubstrate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewScaleRunner accepted an unknown substrate")
		}
	}()
	NewScaleRunner("nope", declog.New(1))
}
