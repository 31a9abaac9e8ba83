package sim

import (
	"fmt"
	"testing"

	"repro/internal/instr"
)

// sendN fires n unit messages 0->1 through a fresh engine under faults and
// returns (engine, delivered count).
func sendN(t *testing.T, n int, f *Faults) (*Engine, int) {
	t.Helper()
	eng := NewEngine(2)
	newFifo(eng, 1)
	eng.SetFaults(f)
	delivered := 0
	src := eng.Node(0)
	for i := 0; i < n; i++ {
		eng.SendAt(src, eng.Node(1), src.Clock, 10, 1, func() { delivered++ })
	}
	eng.Run()
	return eng, delivered
}

func TestFaultsDropRate(t *testing.T) {
	const total = 10000
	eng, delivered := sendN(t, total, &Faults{Seed: 7, Drop: 0.05})
	drops := int(eng.FaultStats().Drops)
	if delivered+drops != total {
		t.Fatalf("delivered %d + drops %d != %d", delivered, drops, total)
	}
	// 5% of 10000 with a real rng: allow a wide band.
	if drops < 300 || drops > 800 {
		t.Fatalf("drops = %d, want roughly 500", drops)
	}
}

func TestFaultsDupDeliversTwice(t *testing.T) {
	const total = 10000
	eng, delivered := sendN(t, total, &Faults{Seed: 7, Dup: 0.10})
	dups := int(eng.FaultStats().Dups)
	if delivered != total+dups {
		t.Fatalf("delivered %d, want %d originals + %d dups", delivered, total, dups)
	}
	if dups < 700 || dups > 1400 {
		t.Fatalf("dups = %d, want roughly 1000", dups)
	}
	if got := eng.Node(1).MsgsRecv; got != int64(delivered) {
		t.Fatalf("MsgsRecv = %d, want %d (each physical delivery counted)", got, delivered)
	}
}

func TestFaultsReorderJitters(t *testing.T) {
	eng := NewEngine(2)
	newFifo(eng, 1)
	eng.SetFaults(&Faults{Seed: 3, Reorder: 1, JitterMax: 100})
	var arrivals []Time
	src := eng.Node(0)
	for i := 0; i < 50; i++ {
		eng.SendAt(src, eng.Node(1), src.Clock, 10, 1, func() { arrivals = append(arrivals, eng.Now()) })
	}
	eng.Run()
	if int(eng.FaultStats().Jitters) != 50 {
		t.Fatalf("jitters = %d, want 50", eng.FaultStats().Jitters)
	}
	spread := false
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i] != arrivals[0] {
			spread = true
		}
	}
	if !spread {
		t.Fatal("jitter produced identical arrival times for every message")
	}
}

// TestFaultsDeterministic: identical seeds reproduce identical fault
// schedules; different seeds diverge.
func TestFaultsDeterministic(t *testing.T) {
	run := func(seed uint64) FaultStats {
		eng, _ := sendN(t, 2000, &Faults{Seed: seed, Drop: 0.05, Dup: 0.05, Reorder: 0.1, JitterMax: 50})
		return eng.FaultStats()
	}
	a, b, c := run(42), run(42), run(43)
	if a != b {
		t.Fatalf("same seed, different fault schedules: %+v vs %+v", a, b)
	}
	if a == c {
		t.Fatalf("different seeds produced identical fault schedules: %+v", a)
	}
}

func TestFaultsValidate(t *testing.T) {
	bad := []*Faults{
		{Drop: -0.1},
		{Drop: 1.5},
		{Dup: 2},
		{Reorder: 0.5},               // no JitterMax
		{StallEvery: 100},            // no StallLen
		{SlowEvery: 100, SlowLen: 5}, // no SlowFactor
		{SlowEvery: 100, SlowLen: 5, SlowFactor: 1},
		{CrashEvery: 100},                 // no CrashLen
		{CrashEvery: -1},                  // negative interval
		{CrashLen: -5},                    // negative downtime
		{CrashEvery: 100, CrashLen: 100},  // node down as long as it is up
		{CrashEvery: 100, CrashLen: 5000}, // downtime exceeds interval
	}
	for i, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: %+v validated", i, f)
		}
	}
	good := []*Faults{
		nil,
		{},
		{Drop: 0.05, Dup: 0.01, Reorder: 0.1, JitterMax: 100},
		{StallEvery: 1000, StallLen: 50},
		{SlowEvery: 1000, SlowLen: 50, SlowFactor: 4},
		{CrashEvery: 1000, CrashLen: 50},
	}
	for i, f := range good {
		if err := f.Validate(); err != nil {
			t.Errorf("case %d: unexpected error %v", i, err)
		}
	}
}

// TestStallDefersExecution: a node whose stallUntil lies in the future runs
// nothing until the window closes, then catches up.
func TestStallDefersExecution(t *testing.T) {
	eng := NewEngine(1)
	r := newFifo(eng, 10)
	ran := Time(-1)
	r.push(0, func(n *Node) { ran = eng.Now() })
	eng.Node(0).stallUntil = 500
	eng.Wake(eng.Node(0))
	eng.Run()
	if ran < 0 {
		t.Fatal("task never ran")
	}
	if ran < 500 {
		t.Fatalf("task ran at %d, inside the stall window [0,500)", ran)
	}
}

// TestStallWindowsOpen: a stall-window fault config actually opens windows
// while the machine has real work, and the run still terminates.
func TestStallWindowsOpen(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	eng.SetFaults(&Faults{Seed: 1, StallEvery: 200, StallLen: 50})
	// Real events out to t=2000 keep the machine alive across several
	// window intervals.
	for i := Time(100); i <= 2000; i += 100 {
		eng.Schedule(i, func() {})
	}
	eng.Run()
	if eng.FaultStats().Stalls == 0 {
		t.Fatal("no stall window opened over 2000 ticks with StallEvery=200")
	}
}

// TestBrownOutSlowsClock: charges inside a brown-out window cost
// SlowFactor times as much.
func TestBrownOutSlowsClock(t *testing.T) {
	eng := NewEngine(1)
	n := eng.Node(0)
	n.slowUntil = 1000
	n.slowFactor = 3
	Charge(n, instr.OpWork, 100)
	if n.Clock != 300 {
		t.Fatalf("clock = %d, want 300 (3x slowdown)", n.Clock)
	}
	n.Clock = 2000 // past the window
	Charge(n, instr.OpWork, 100)
	if n.Clock != 2100 {
		t.Fatalf("clock = %d, want 2100 (window over)", n.Clock)
	}
}

// TestAfterFuncAndStop: a timer armed for later fires then, and one stopped
// before its time never runs, though its stale event still pops.
func TestAfterFuncAndStop(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	fired := 0
	newTimer(eng.Node(0), func() { fired++ }).Reset(100)
	tm := newTimer(eng.Node(0), func() { fired += 10 })
	tm.Reset(200)
	eng.Schedule(50, func() { tm.Stop() })
	eng.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (stopped timer must not run)", fired)
	}
	if eng.Now() != 200 {
		t.Fatalf("now = %d: cancelled timer event should still pop at 200", eng.Now())
	}
}

// TestServiceEventsDoNotSustainEachOther: two mutually-watching periodic
// services must both stop once only service events remain.
func TestServiceEventsDoNotSustainEachOther(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	ticks := 0
	var a, b func()
	a = func() {
		ticks++
		if eng.PendingWork() > 0 {
			eng.ScheduleService(eng.Now()+10, a)
		}
	}
	b = func() {
		ticks++
		if eng.PendingWork() > 0 {
			eng.ScheduleService(eng.Now()+10, b)
		}
	}
	eng.ScheduleService(10, a)
	eng.ScheduleService(10, b)
	eng.Schedule(25, func() {}) // real work until t=25
	eng.Run()
	if ticks > 8 {
		t.Fatalf("services ticked %d times: they sustained each other past the last real event", ticks)
	}
	if ticks < 4 {
		t.Fatalf("services ticked %d times: they stopped while real work remained", ticks)
	}
}

// TestCrashWindowsOpen: a crash fault config opens fail-stop windows while
// the machine has real work; every crash gets a matching rejoin; the victim
// is down for exactly the configured window; and — because the global crash
// clock measures each interval from the previous victim's rejoin — no two
// nodes are ever down at once.
func TestCrashWindowsOpen(t *testing.T) {
	eng := NewEngine(4)
	newFifo(eng, 1)
	eng.SetFaults(&Faults{Seed: 7, CrashEvery: 300, CrashLen: 40})
	type window struct {
		node     int
		from, to Time
	}
	var crashes []window
	eng.SetFaultObserver(func(kind FaultKind, from, to int, words int, aux, at Time) {
		switch kind {
		case FaultCrash:
			crashes = append(crashes, window{from, eng.Now(), eng.Now() + aux})
			if !eng.Node(from).Down() {
				t.Errorf("node %d not Down() at its own crash", from)
			}
		case FaultRejoin:
			if len(crashes) == 0 {
				t.Fatal("rejoin before any crash")
			}
			w := crashes[len(crashes)-1]
			if from != w.node || eng.Now() != w.to {
				t.Errorf("rejoin of node %d at %d, want node %d at %d", from, eng.Now(), w.node, w.to)
			}
		}
	})
	for i := Time(50); i <= 3000; i += 50 {
		eng.Schedule(i, func() {})
	}
	eng.Run()
	st := eng.FaultStats()
	if st.Crashes == 0 {
		t.Fatal("no crash window opened over 3000 ticks with CrashEvery=300")
	}
	if st.Crashes != st.Rejoins {
		t.Fatalf("%d crashes but %d rejoins", st.Crashes, st.Rejoins)
	}
	for i := 1; i < len(crashes); i++ {
		if crashes[i].from < crashes[i-1].to {
			t.Fatalf("overlapping crash windows: node %d down until %d, node %d crashed at %d",
				crashes[i-1].node, crashes[i-1].to, crashes[i].node, crashes[i].from)
		}
	}
}

// TestCrashScheduleDeterministic: equal seeds and equal crash configs
// produce identical victim sequences and window times; a different seed
// produces a different schedule.
func TestCrashScheduleDeterministic(t *testing.T) {
	run := func(seed uint64) [][2]int64 {
		eng := NewEngine(4)
		newFifo(eng, 1)
		eng.SetFaults(&Faults{Seed: seed, CrashEvery: 300, CrashLen: 40})
		var sched [][2]int64
		eng.SetFaultObserver(func(kind FaultKind, from, to int, words int, aux, at Time) {
			if kind == FaultCrash {
				sched = append(sched, [2]int64{int64(from), int64(eng.Now())})
			}
		})
		for i := Time(50); i <= 3000; i += 50 {
			eng.Schedule(i, func() {})
		}
		eng.Run()
		return sched
	}
	a, b, c := run(9), run(9), run(10)
	if len(a) == 0 {
		t.Fatal("no crashes scheduled")
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("same seed, different crash schedules:\n%v\n%v", a, b)
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Fatalf("different seeds produced identical crash schedules: %v", a)
	}
}
