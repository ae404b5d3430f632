package sim

import (
	"fmt"
	"testing"
	"time"
)

// scheduler is the API the differential harness drives: the simulator and
// refSim both implement it.
type scheduler interface {
	Now() time.Duration
	Events() uint64
	Pending() int
	MaxPending() int
	At(t time.Duration, fn func())
	AtArg(t time.Duration, fn func(uint64), arg uint64)
	AfterArgSeries(every time.Duration, n int, fn func(uint64), arg uint64)
	Every(start, interval time.Duration, fn func() bool)
	Stop()
	Step() bool
	RunUntil(deadline time.Duration)
}

var (
	_ scheduler = (*Simulation)(nil)
	_ scheduler = (*refSim)(nil)
)

// observation is one thing a harness saw: a callback that fired (with its
// identity) or a top-level op that returned, with the clock and counters
// right then.
type observation struct {
	what       string
	id         uint64
	now        time.Duration
	events     uint64
	pending    int
	maxPending int
}

func (o observation) String() string {
	return fmt.Sprintf("%s(%d)@%v events=%d pending=%d max=%d", o.what, o.id, o.now, o.events, o.pending, o.maxPending)
}

// diffWorld runs one fuzz program against one scheduler. The program is a
// byte stream read both by the top-level loop and by every handler as it
// fires, so events are scheduled from inside handlers, at the instant they
// fire and later. Two worlds with the same program read the same bytes exactly
// as long as they fire the same events in the same order.
type diffWorld struct {
	s       scheduler
	prog    []byte
	pc      int
	budget  int // events the program may still schedule
	nextID  uint64
	log     []observation
	checked int // log entries already compared

	onArg func(uint64) // bound once, as substrates bind their handlers
	chain func(uint64)
}

// diffBudget bounds the events one program schedules, so every program
// terminates (series up to 300 elements included).
const diffBudget = 3000

func newDiffWorld(s scheduler, prog []byte) *diffWorld {
	w := &diffWorld{s: s, prog: prog, budget: diffBudget}
	w.onArg = func(arg uint64) {
		w.observe("arg", arg)
		w.react(w.next())
	}
	// chain is a same-instant cascade: arg = id<<8 | links still to come.
	w.chain = func(arg uint64) {
		w.observe("chain", arg)
		if arg&0xff > 0 {
			w.s.AtArg(w.s.Now(), w.chain, arg-1)
		}
	}
	return w
}

// next reads one program byte; past the end it reads zeros, which schedule
// nothing.
func (w *diffWorld) next() byte {
	if w.pc >= len(w.prog) {
		return 0
	}
	b := w.prog[w.pc]
	w.pc++
	return b
}

func (w *diffWorld) observe(what string, id uint64) {
	w.log = append(w.log, observation{what, id, w.s.Now(), w.s.Events(), w.s.Pending(), w.s.MaxPending()})
}

// take claims n events of the budget and n fresh ids, the first of which
// it returns; ok is false once the budget cannot cover n.
func (w *diffWorld) take(n int) (id uint64, ok bool) {
	if n > w.budget {
		return 0, false
	}
	w.budget -= n
	id = w.nextID
	w.nextID += uint64(n)
	return id, true
}

// react applies one scheduling op. Delays are 0–15 ns and series spacings
// 0, 1 or 2–15 ns, so events collide on instants constantly, with series
// elements, events queued for now and events scheduled at now among them.
func (w *diffWorld) react(op byte) {
	now := w.s.Now()
	switch op % 16 {
	case 6, 7, 8: // AtArg, d = 0 due now
		d := time.Duration(w.next() % 16)
		if id, ok := w.take(1); ok {
			w.s.AtArg(now+d, w.onArg, id)
		}
	case 9: // At, the closure form
		d := time.Duration(w.next() % 16)
		if id, ok := w.take(1); ok {
			w.s.At(now+d, func() {
				w.observe("closure", id)
				w.react(w.next())
			})
		}
	case 10, 11: // AfterArgSeries
		sel, hi, lo := w.next(), w.next(), w.next()
		every := time.Duration(0)
		switch sel % 3 {
		case 1:
			every = 1
		case 2:
			every = time.Duration(2 + sel/3%14)
		}
		n := (int(hi)<<8 | int(lo)) % 301
		if id, ok := w.take(n); ok {
			w.s.AfterArgSeries(every, n, w.onArg, id)
		}
	case 12: // a same-instant cascade of 1–8 links
		links := 1 + int(w.next()%8)
		if id, ok := w.take(links); ok {
			w.s.AtArg(now, w.chain, id<<8|uint64(links-1))
		}
	case 13: // Every, stopping itself after k ticks
		b := w.next()
		start, interval, k := time.Duration(b%8), time.Duration(1+b>>3%8), 1+int(w.next()%8)
		if id, ok := w.take(k); ok {
			ticks := 0
			w.s.Every(start, interval, func() bool {
				ticks++
				w.observe("tick", id)
				w.react(w.next())
				return ticks < k
			})
		}
	case 14: // Stop, rarely: it ends the run
		if w.next() == 0xff {
			w.s.Stop()
		}
	}
}

// topLevelOp runs one top-level op: Step, RunUntil a deadline 0–63 ns ahead
// (between and on series instants alike), or a scheduling op from outside
// any handler.
func (w *diffWorld) topLevelOp() {
	switch b := w.next(); b % 4 {
	case 0, 1:
		fired := w.s.Step()
		w.observe("step", boolID(fired))
	case 2:
		d := time.Duration(b >> 2)
		w.s.RunUntil(w.s.Now() + d)
		w.observe("until", uint64(d))
	case 3:
		w.react(b >> 2)
		w.observe("op", uint64(b>>2))
	}
}

func boolID(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// compareWorlds fails on the first observation where the simulator and the
// reference disagree: the callback, its argument, Now, Events, Pending or
// MaxPending.
func compareWorlds(t *testing.T, got, want *diffWorld) {
	t.Helper()
	for i := got.checked; i < len(got.log) || i < len(want.log); i++ {
		var g, r observation
		if i < len(got.log) {
			g = got.log[i]
		}
		if i < len(want.log) {
			r = want.log[i]
		}
		if g != r {
			from := max(0, i-4)
			t.Fatalf("observation %d: simulator saw %v, reference %v\nsimulator: %v\nreference: %v",
				i, g, r, got.log[from:min(len(got.log), i+1)], want.log[from:min(len(want.log), i+1)])
		}
	}
	got.checked, want.checked = len(got.log), len(want.log)
}

// runSimDifferential runs prog on the simulator and on refSim in lockstep,
// comparing after every top-level op, then steps both dry one event at a time.
func runSimDifferential(t *testing.T, prog []byte) {
	t.Helper()
	got, want := newDiffWorld(New(), prog), newDiffWorld(&refSim{}, prog)
	for got.pc < len(prog) {
		got.topLevelOp()
		want.topLevelOp()
		compareWorlds(t, got, want)
	}
	for {
		g, r := got.s.Step(), want.s.Step()
		got.observe("drain", boolID(g))
		want.observe("drain", boolID(r))
		compareWorlds(t, got, want)
		if !g {
			return
		}
	}
}

// FuzzSimDifferential checks the simulator's queue — the sorted buffer in
// front of the heap, packed heap keys, the payload table and its free list,
// and shared series elements — against refSim's container/heap on
// fuzzer-chosen programs of At, AtArg, AfterArgSeries, cascades, Every,
// Stop, Step and RunUntil.
func FuzzSimDifferential(f *testing.F) {
	for _, prog := range simDiffSeeds {
		f.Add(prog)
	}
	f.Fuzz(runSimDifferential)
}

// simDiffSeeds are general mixes; the targeted programs, one per ordering
// rule a mutant breaks, live in testdata/fuzz/FuzzSimDifferential. Among
// them, ring-event-before-series schedules an event due now and then a
// series starting now, whose element 0 fires after it.
var simDiffSeeds = [][]byte{
	// a series 1 ns apart, then events at now and on its instants; steps.
	{3 | 10<<2, 1, 0, 5, 3 | 6<<2, 2, 3 | 6<<2, 0, 0, 0, 0, 0, 2 | 3<<2, 0, 1, 0},
	// a 300-element series 5 ns apart, Every ticks 3 ns apart, RunUntil.
	{3 | 10<<2, 11, 1, 44, 3 | 13<<2, 0x15, 3, 2 | 7<<2, 0, 9, 2 | 30<<2, 12, 0, 1},
	// a cascade and a zero-spacing series at now, sharing the instant.
	{3 | 12<<2, 4, 3 | 10<<2, 0, 0, 6, 0, 14, 0xff, 0, 0, 1, 1},
	// a handler schedules a series whose handlers schedule closures and
	// events; RunUntil deadlines fall between its elements.
	{3 | 6<<2, 1, 0, 10, 2, 0, 6, 2 | 9<<2, 9, 3, 9, 0, 6, 5, 0, 0, 2 | 9<<2, 0, 0},
	deepTieSeed(),
}

// deepTieSeed keeps up to 258 events in the heap, all due within 15 ns, so
// every pop walks several levels through full groups of children that tie
// on their instant: 300 top-level AtArg ops 1–15 ns ahead, with a Step
// every 7 ops whose handler reads a 0, which schedules nothing.
func deepTieSeed() []byte {
	var prog []byte
	for i := 0; i < 300; i++ {
		prog = append(prog, 3|6<<2, byte(1+i*7%15))
		if i%7 == 6 {
			prog = append(prog, 0, 0)
		}
	}
	return prog
}

// tableRun runs script against a fresh scheduler, then steps it dry and
// returns the observations: the script records through rec.
func tableRun(s scheduler, script func(s scheduler, rec func(string) func(uint64))) []observation {
	var log []observation
	rec := func(what string) func(uint64) {
		return func(id uint64) {
			log = append(log, observation{what, id, s.Now(), s.Events(), s.Pending(), s.MaxPending()})
		}
	}
	script(s, rec)
	for s.Step() {
	}
	log = append(log, observation{"end", boolID(s.Step()), s.Now(), s.Events(), s.Pending(), s.MaxPending()})
	return log
}

// TestSimMatchesReferenceOnOrderingCases pins cases a wrong ordering rule,
// or a miscounted Pending, would get wrong: every observation must equal
// the reference's, and the firing order a spelled-out one.
func TestSimMatchesReferenceOnOrderingCases(t *testing.T) {
	cases := []struct {
		name   string
		script func(s scheduler, rec func(string) func(uint64))
		want   []string // "what:id@now" per callback
	}{{
		// Every ticks land on series instants. The tick at 2 was scheduled
		// at 0, before the series, so it fires first; the tick at 4 was
		// scheduled at 2, after the series reserved its numbers, so it fires
		// after element 4. A rule that orders a series by element time alone
		// or lets it jump ahead of the heap gets one of them wrong.
		name: "every-ticks-on-series-instants",
		script: func(s scheduler, rec func(string) func(uint64)) {
			tick, ticks := rec("tick"), 0
			s.Every(2, 2, func() bool { ticks++; tick(uint64(ticks)); return ticks < 3 })
			s.AfterArgSeries(1, 7, rec("s"), 0)
		},
		want: []string{"s:0@0", "s:1@1", "tick:1@2", "s:2@2", "s:3@3", "s:4@4", "tick:2@4", "s:5@5", "s:6@6", "tick:3@6"},
	}, {
		// Element 0 of a series started at 5 is due now: it queues behind
		// B, queued for 5 before 5, and R, scheduled at 5 just before the
		// series. Queuing element 0 at the buffer's earliest end would fire
		// it ahead of both.
		name: "series-element-0-behind-heap-events-at-now",
		script: func(s scheduler, rec func(string) func(uint64)) {
			a, b, r, ser := rec("a"), rec("b"), rec("r"), rec("s")
			s.At(5, func() {
				a(0)
				s.AtArg(s.Now(), r, 0)
				s.AfterArgSeries(2, 3, ser, 0)
			})
			s.AtArg(5, b, 0)
			s.AtArg(7, b, 1)
		},
		want: []string{"a:0@5", "b:0@5", "r:0@5", "s:0@5", "b:1@7", "s:1@7", "s:2@9"},
	}, {
		// An event scheduled right after a series, due with its last
		// element, fires after it: the series reserved every sequence number
		// up to its last element's. P0 and P1 leave the payload free list
		// so that the event's slot sorts below the series', so even a tie on
		// sequence numbers would put it first.
		name: "event-due-with-series-last-element",
		script: func(s scheduler, rec func(string) func(uint64)) {
			p, ser, x := rec("p"), rec("s"), rec("x")
			s.AtArg(1, p, 0)
			s.At(2, func() {
				p(1)
				s.AfterArgSeries(1, 3, ser, 0)
				s.AtArg(4, x, 0)
			})
		},
		want: []string{"p:0@1", "p:1@2", "s:0@2", "s:1@3", "s:2@4", "x:0@4"},
	}, {
		// A two-element series, the shortest that shares one queue element:
		// P, scheduled before it, and X, after it, tie element 1's instant.
		name: "series-of-two",
		script: func(s scheduler, rec func(string) func(uint64)) {
			s.AtArg(3, rec("p"), 0)
			s.AfterArgSeries(3, 2, rec("s"), 0)
			s.AtArg(3, rec("x"), 0)
		},
		want: []string{"s:0@0", "p:0@3", "s:1@3", "x:0@3"},
	}, {
		// H at 1 schedules twenty events at 1 while E, queued for 1 before
		// H fired, and L at 5 are pending. The events due now queue behind
		// E; the buffer fills and spills L into the heap, the last five due
		// now go to the heap directly, and they come back through refills,
		// in scheduling order and before L.
		name: "same-instant-events-overflow-and-refill",
		script: func(s scheduler, rec func(string) func(uint64)) {
			h, a := rec("h"), rec("a")
			s.At(1, func() {
				h(0)
				for i := range 20 {
					s.AtArg(s.Now(), a, uint64(i))
				}
			})
			s.AtArg(1, rec("e"), 0)
			s.AtArg(5, rec("l"), 0)
		},
		want: []string{"h:0@1", "e:0@1", "a:0@1", "a:1@1", "a:2@1", "a:3@1", "a:4@1", "a:5@1", "a:6@1", "a:7@1",
			"a:8@1", "a:9@1", "a:10@1", "a:11@1", "a:12@1", "a:13@1", "a:14@1", "a:15@1", "a:16@1", "a:17@1",
			"a:18@1", "a:19@1", "l:0@5"},
	}, {
		// Stop inside a series handler: the elements not yet fired stay
		// pending (Pending counts the hidden ones), and nothing more fires.
		name: "stop-inside-series-handler",
		script: func(s scheduler, rec func(string) func(uint64)) {
			ser := rec("s")
			s.AfterArgSeries(3, 6, func(i uint64) {
				ser(i)
				if i == 2 {
					s.Stop()
				}
			}, 0)
			s.AtArg(20, rec("late"), 0)
		},
		want: []string{"s:0@0", "s:1@3", "s:2@6"},
	}, {
		// Fifteen events at 4 and H at 8 fill the buffer in front of the
		// heap. E at 3 spills H, the latest, into the heap. L at 6 orders
		// before the heap's minimum H but after the full buffer's latest,
		// a:14, so it goes to the heap itself. Once E has fired, T ties the
		// heap's minimum L on its instant and fires after it. Draining the
		// buffer refills it from the heap while the heap still holds T and H.
		name: "full-buffer-edges",
		script: func(s scheduler, rec func(string) func(uint64)) {
			a := rec("a")
			for i := range 15 {
				s.AtArg(4, a, uint64(i))
			}
			s.AtArg(8, rec("h"), 0)
			s.AtArg(3, rec("e"), 0)
			s.AtArg(6, rec("l"), 0)
			s.Step()
			s.AtArg(6, rec("t"), 0)
		},
		want: []string{"e:0@3", "a:0@4", "a:1@4", "a:2@4", "a:3@4", "a:4@4", "a:5@4", "a:6@4", "a:7@4",
			"a:8@4", "a:9@4", "a:10@4", "a:11@4", "a:12@4", "a:13@4", "a:14@4", "l:0@6", "t:0@6", "h:0@8"},
	}, {
		// A series 3 apart fills the buffer with fifteen events at 4, and
		// b:15 goes to the heap. Element 1 fires at 3 and element 2, due at
		// 6, is later than the heap's minimum: it crosses into the heap and
		// comes back through a refill.
		name: "series-element-crosses-into-heap",
		script: func(s scheduler, rec func(string) func(uint64)) {
			s.AfterArgSeries(3, 4, rec("s"), 0)
			b := rec("b")
			for i := range 16 {
				s.AtArg(4, b, uint64(i))
			}
		},
		want: []string{"s:0@0", "s:1@3", "b:0@4", "b:1@4", "b:2@4", "b:3@4", "b:4@4", "b:5@4", "b:6@4", "b:7@4",
			"b:8@4", "b:9@4", "b:10@4", "b:11@4", "b:12@4", "b:13@4", "b:14@4", "b:15@4", "s:2@6", "s:3@9"},
	}, {
		// The same with the events at 6: element 2 ties the buffered events
		// and the heap's minimum b:15 on their instant and reserved its
		// sequence number before all of them, so it stays in the buffer and
		// fires first.
		name: "series-element-ties-heap-minimum",
		script: func(s scheduler, rec func(string) func(uint64)) {
			s.AfterArgSeries(3, 4, rec("s"), 0)
			b := rec("b")
			for i := range 16 {
				s.AtArg(6, b, uint64(i))
			}
		},
		want: []string{"s:0@0", "s:1@3", "s:2@6", "b:0@6", "b:1@6", "b:2@6", "b:3@6", "b:4@6", "b:5@6", "b:6@6",
			"b:7@6", "b:8@6", "b:9@6", "b:10@6", "b:11@6", "b:12@6", "b:13@6", "b:14@6", "b:15@6", "s:3@9"},
	}, {
		// RunUntil's deadline falls between the sixteen buffered events at
		// 2 and the heap's H at 9: the buffer drains, H stays pending and
		// the clock parks at 5.
		name: "until-between-buffer-and-heap",
		script: func(s scheduler, rec func(string) func(uint64)) {
			a := rec("a")
			for i := range 16 {
				s.AtArg(2, a, uint64(i))
			}
			s.AtArg(9, rec("h"), 0)
			s.RunUntil(5)
			rec("until")(0)
		},
		want: []string{"a:0@2", "a:1@2", "a:2@2", "a:3@2", "a:4@2", "a:5@2", "a:6@2", "a:7@2",
			"a:8@2", "a:9@2", "a:10@2", "a:11@2", "a:12@2", "a:13@2", "a:14@2", "a:15@2", "until:0@5", "h:0@9"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ref := tableRun(New(), tc.script), tableRun(&refSim{}, tc.script)
			if len(got) != len(ref) {
				t.Fatalf("simulator saw %v\nreference saw %v", got, ref)
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("observation %d: simulator %v, reference %v", i, got[i], ref[i])
				}
			}
			var order []string
			for _, o := range got[:len(got)-1] {
				order = append(order, fmt.Sprintf("%s:%d@%d", o.what, o.id, o.now))
			}
			if fmt.Sprint(order) != fmt.Sprint(tc.want) {
				t.Fatalf("fired %v, want %v", order, tc.want)
			}
		})
	}
}
