package smartconf

import (
	"testing"

	"smartconf/internal/declog"
)

func TestDecisionLogOnDirectConf(t *testing.T) {
	log := NewDecisionLog(16)
	sc, err := New(Spec{Name: "c", Metric: "m", Goal: 100, Max: 1e6},
		linearProfile(1, 0, 10, 20, 30), WithDecisionLog(log))
	if err != nil {
		t.Fatal(err)
	}
	sc.SetPerf(40)
	first := sc.Value()
	sc.Value() // no fresh measurement: no decision, no record
	sc.SetPerf(60)
	sc.Value()
	recs := log.Snapshot()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	if recs[0].Period != 1 || recs[1].Period != 2 {
		t.Errorf("periods: %+v", recs)
	}
	if src := log.Sources(); len(src) != 1 || src[recs[0].Source] != "c" {
		t.Errorf("sources = %v, record 0 source %d; want [c]", src, recs[0].Source)
	}
	if r := recs[0]; r.Sensed != 40 || r.Sensed+r.Err != 100 {
		t.Errorf("record 0 = %+v; want sensed 40 against setpoint 100", r)
	}
	if recs[0].Applied != first {
		t.Errorf("record 0 applied %v, conf returned %v", recs[0].Applied, first)
	}
}

func TestDecisionLogOnIndirectConf(t *testing.T) {
	log := NewDecisionLog(16)
	profile := NewProfile()
	for _, s := range []float64{10, 20, 30} {
		profile.Add(s, s, s)
	}
	ic, err := NewIndirect(Spec{Name: "q", Metric: "m", Goal: 100, Max: 1e6},
		profile, nil, WithDecisionLog(log))
	if err != nil {
		t.Fatal(err)
	}
	ic.SetPerf(40, 7)
	ic.Value()
	recs := log.Snapshot()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1", len(recs))
	}
	// Deadbeat with α=1 from the deputy 7: applied = 7 + (100-40) = 67.
	if recs[0].Applied != 67 {
		t.Errorf("applied = %v, want 67 (the update starts from deputy 7)", recs[0].Applied)
	}
}

func TestDecisionLogReportsSaturation(t *testing.T) {
	log := NewDecisionLog(16)
	sc, err := New(Spec{Name: "c", Metric: "m", Goal: 1e9, Max: 5},
		linearProfile(1, 0, 1, 3, 5), WithDecisionLog(log))
	if err != nil {
		t.Fatal(err)
	}
	sc.SetPerf(1)
	sc.Value()
	recs := log.Snapshot()
	if len(recs) != 1 || recs[0].Clamp != declog.ClampMax || recs[0].Applied != 5 {
		t.Errorf("saturated decision not logged as clamp max at 5: %+v", recs)
	}
}
