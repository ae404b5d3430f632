// rpcqueue: the HB3813 story on a miniature RPC server — a bounded call
// queue whose payloads pin heap memory — demonstrating three run-time
// features of the public API:
//
//   - SetGoal: an administrator tightens the memory budget mid-run and the
//     controller follows without a restart;
//   - unreachable-goal alerts: when the administrator then demands the
//     impossible, SmartConf keeps making best effort and says so;
//   - the decision log: who set the knob, and why.
//
// Run with: go run ./examples/rpcqueue
package main

import (
	"fmt"
	"time"

	"smartconf"
)

const mb = float64(1 << 20)

// rpcServer is the plant: heap = base + 2 MB per queued call, with a wobble.
type rpcServer struct {
	queue float64 // calls waiting (the deputy variable)
	limit float64 // max.queue.size (the knob)
	base  float64
	rng   uint64
}

func (s *rpcServer) noise() float64 {
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	return (float64(s.rng%1000)/100 - 5) * mb
}

func (s *rpcServer) heap() float64 { return s.base + s.queue*2*mb + s.noise() }

func (s *rpcServer) tick(arrivals, served float64) {
	s.queue += arrivals
	if s.queue > s.limit {
		s.queue = s.limit // admission control: the knob at work
	}
	s.queue -= served
	if s.queue < 0 {
		s.queue = 0
	}
}

func main() {
	srv := &rpcServer{base: 96 * mb, rng: 7}

	// Profile the knob → heap relationship.
	profile, err := smartconf.DefaultPlan(10, 120, 4).Run(func(setting float64) (float64, error) {
		srv.limit = setting
		srv.tick(setting+10, 4)
		return srv.heap(), nil
	})
	if err != nil {
		panic(err)
	}

	log := smartconf.NewDecisionLog(256)
	sc, err := smartconf.NewIndirect(smartconf.Spec{
		Name:   "ipc.server.max.queue.size",
		Metric: "memory_consumption",
		Goal:   512 * mb,
		Hard:   true,
		Min:    0, Max: 100_000,
	}, profile, nil,
		smartconf.WithAlert(func(a smartconf.Alert) {
			fmt.Printf("  ALERT: %v\n", a)
		}),
		smartconf.WithAlertThreshold(5),
		smartconf.WithDecisionLog(log),
	)
	if err != nil {
		panic(err)
	}

	srv.queue, srv.limit = 0, 0
	run := func(ticks int) {
		for i := 0; i < ticks; i++ {
			sc.SetPerf(srv.heap(), srv.queue)
			srv.limit = float64(sc.Conf())
			srv.tick(60, 30)
		}
		fmt.Printf("  heap %.0f MB, queue %.0f calls, limit %.0f (goal %.0f MB, virtual %.0f MB)\n",
			srv.heap()/mb, srv.queue, srv.limit, sc.Goal()/mb, sc.VirtualGoal()/mb)
	}

	fmt.Println("phase 1: goal 512 MB")
	run(40)

	fmt.Println("phase 2: administrator tightens the goal to 256 MB (sc.SetGoal)")
	sc.SetGoal(256 * mb)
	run(40)

	fmt.Println("phase 3: the goal drops below the server's base footprint — unreachable")
	sc.SetGoal(64 * mb) // base alone is 96 MB; no queue bound can satisfy this
	run(40)
	time.Sleep(100 * time.Millisecond) // alerts are delivered asynchronously
	fmt.Println("SmartConf pinned the knob at its minimum, kept serving, and raised the alert.")

	fmt.Println("who set the limit, and why (the last three decisions):")
	decisions, names := log.Snapshot(), log.Sources()
	for _, d := range decisions[len(decisions)-3:] {
		fmt.Printf("  %s #%d: sensed %.0f MB, error %.0f MB, pole %g, raw %.1f -> applied %g (clamp %v)\n",
			names[d.Source], d.Period, d.Sensed/mb, d.Err/mb, d.Pole, d.Raw, d.Applied, d.Clamp)
	}
}
