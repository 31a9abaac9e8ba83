package sim

import "testing"

// newTimer returns a timer bound to node n that runs fn when it fires.
func newTimer(n *Node, fn func()) *Timer {
	t := new(Timer)
	t.Init(n, fn)
	return t
}

// TestCancelledTimerNotPendingWork: a stopped timer's dead heap slot must
// not be reported as pending work.
func TestCancelledTimerNotPendingWork(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	tm := newTimer(eng.Node(0), func() { t.Error("cancelled timer fired") })
	tm.Reset(1000)
	if got := eng.PendingWork(); got != 1 {
		t.Fatalf("PendingWork = %d before Stop, want 1", got)
	}
	tm.Stop()
	if got := eng.PendingWork(); got != 0 {
		t.Fatalf("PendingWork = %d after Stop, want 0", got)
	}
	tm.Stop() // double-stop must not double-count
	if got := eng.PendingWork(); got != 0 {
		t.Fatalf("PendingWork = %d after double Stop, want 0", got)
	}
	eng.Run()
	if got := eng.PendingWork(); got != 0 {
		t.Fatalf("PendingWork = %d after the dead event drained, want 0", got)
	}
}

// TestStopAfterFireIsNoOp: stopping a timer that already fired must not
// disturb the pending-work accounting of later events.
func TestStopAfterFireIsNoOp(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	fired := false
	tm := newTimer(eng.Node(0), func() { fired = true })
	tm.Reset(10)
	eng.Run()
	if !fired {
		t.Fatal("timer did not fire")
	}
	tm.Stop()
	eng.Schedule(eng.Now()+5, func() {})
	if got := eng.PendingWork(); got != 1 {
		t.Fatalf("PendingWork = %d, want 1 (post-fire Stop must not decrement)", got)
	}
	eng.Run()
}

// TestServiceStopsWithOnlyCancelledTimers is the regression for the
// satellite bug: cancelled timers used to count toward PendingWork, so a
// periodic service (migration pump, ack flusher) that reschedules while
// PendingWork() > 0 would keep ticking until the dead timer's slot drained.
// With only a cancelled timer outstanding the service must stop after its
// first tick.
func TestServiceStopsWithOnlyCancelledTimers(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	tm := newTimer(eng.Node(0), func() { t.Error("cancelled timer fired") })
	tm.Reset(5000)
	tm.Stop()
	ticks := 0
	var tick func()
	tick = func() {
		ticks++
		if eng.PendingWork() > 0 {
			eng.ScheduleService(eng.Now()+10, tick)
		}
	}
	eng.ScheduleService(10, tick)
	eng.Run()
	if ticks != 1 {
		t.Fatalf("service ticked %d times, want 1: only a cancelled timer was pending", ticks)
	}
}

// TestTimerRearmAllocatesNothing: an embedded timer is armed, stopped and
// re-armed in place. Once the queue is warm none of that allocates — the
// event carries the *Timer, and the callback was bound once by Init.
func TestTimerRearmAllocatesNothing(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	fired := 0
	tm := newTimer(eng.Node(0), func() { fired++ })
	cycle := func() {
		tm.Reset(100)
		tm.Stop()
		tm.Reset(50)
		tm.Reset(20) // re-arm over a live arming
		eng.Run()
	}
	cycle()
	if fired != 1 {
		t.Fatalf("timer fired %d times in one cycle, want once", fired)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("arming, stopping and re-arming a timer allocates %.0f times, want 0", allocs)
	}
	// AllocsPerRun makes one warm-up run before the 100 it measures.
	if fired != 102 {
		t.Fatalf("timer fired %d times over 102 cycles, want once per cycle", fired)
	}
}

// TestStaleArmingIsDead: re-arming a timer leaves its old arming queued
// until its time, but the old event neither fires nor counts in
// PendingWork, and compaction removes it like a stopped one. The timer's
// current arming fires exactly once, at its own deadline.
func TestStaleArmingIsDead(t *testing.T) {
	eng := NewEngine(1)
	newFifo(eng, 1)
	var at []Time
	tm := newTimer(eng.Node(0), func() { at = append(at, eng.Now()) })
	tm.Reset(100)
	tm.Reset(300) // the arming at 100 is now stale
	if got := eng.PendingWork(); got != 1 {
		t.Fatalf("PendingWork = %d with one live and one stale arming, want 1", got)
	}
	if got := eng.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2 (the stale arming stays queued)", got)
	}
	if !tm.Armed() || tm.When() != 300 {
		t.Fatalf("Armed = %v, When = %d; want armed at 300", tm.Armed(), tm.When())
	}
	eng.RunUntil(200)
	if len(at) != 0 {
		t.Fatalf("the stale arming fired at %v", at)
	}
	eng.Run()
	if len(at) != 1 || at[0] != 300 {
		t.Fatalf("timer fired at %v, want once at 300", at)
	}
	if tm.Armed() {
		t.Fatal("a fired timer still reports armed")
	}

	// Enough stale armings of one timer cross the compaction trigger, and
	// the sweep keeps only the current one.
	for i := 0; i < 4*compactMinQueue; i++ {
		tm.Reset(Time(1000 + i))
	}
	if got := eng.Pending(); got > 2*compactMinQueue {
		t.Fatalf("%d events queued after %d re-armings; compaction did not run", got, 4*compactMinQueue)
	}
	if got := eng.PendingWork(); got != 1 {
		t.Fatalf("PendingWork = %d, want only the current arming", got)
	}
	eng.Run()
	if len(at) != 2 || at[1] != eng.Now() {
		t.Fatalf("fire times %v: want exactly one more firing, at the last arming", at)
	}
	if got := eng.PendingWork(); got != 0 {
		t.Fatalf("PendingWork = %d after quiescence", got)
	}
}
