package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if s.Now() != Time(30*time.Millisecond) {
		t.Fatalf("clock = %v, want 30ms", s.Now())
	}
}

func TestSchedulerFIFOAtSameInstant(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(5*time.Millisecond), func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report success")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report failure")
	}
	s.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
	if tm.Active() {
		t.Fatal("stopped timer reports active")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler(1)
	tm := s.After(0, func() {})
	s.Run()
	if tm.Stop() {
		t.Fatal("Stop after fire should report failure")
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	s := NewScheduler(1)
	ran := false
	s.After(5*time.Millisecond, func() { ran = true })
	s.RunUntil(Time(2 * time.Millisecond))
	if ran {
		t.Fatal("event ran before its deadline")
	}
	if s.Now() != Time(2*time.Millisecond) {
		t.Fatalf("clock = %v, want 2ms", s.Now())
	}
	s.RunFor(10 * time.Millisecond)
	if !ran {
		t.Fatal("event did not run inside window")
	}
	if s.Now() != Time(12*time.Millisecond) {
		t.Fatalf("clock = %v, want 12ms", s.Now())
	}
}

func TestSchedulingInsideEvent(t *testing.T) {
	s := NewScheduler(1)
	var order []string
	s.After(time.Millisecond, func() {
		order = append(order, "a")
		s.After(time.Millisecond, func() { order = append(order, "c") })
		s.After(0, func() { order = append(order, "b") })
	})
	s.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.After(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(Time(time.Millisecond), func() {})
}

func TestPendingCount(t *testing.T) {
	s := NewScheduler(1)
	t1 := s.After(time.Millisecond, func() {})
	s.After(2*time.Millisecond, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	t1.Stop()
	if s.Pending() != 1 {
		t.Fatalf("Pending after stop = %d, want 1", s.Pending())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []int64 {
		s := NewScheduler(42)
		var samples []int64
		var tick func()
		n := 0
		tick = func() {
			samples = append(samples, s.rng.Int63n(1000), int64(s.Now()))
			n++
			if n < 50 {
				s.After(Duration(s.rng.Intn(int(time.Millisecond))), tick)
			}
		}
		s.After(0, tick)
		s.Run()
		return samples
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of non-negative delays, events fire in
// non-decreasing time order.
func TestEventOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		s := NewScheduler(7)
		var times []Time
		for _, d := range delays {
			s.After(Duration(d)*time.Microsecond, func() {
				times = append(times, s.Now())
			})
		}
		s.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A fired timer's slot is reused by the next At; the stale handle must
// neither report active nor cancel the new occupant.
func TestStaleFiredTimerSparesReusedSlot(t *testing.T) {
	s := NewScheduler(1)
	old := s.After(time.Millisecond, func() {})
	s.Run()
	fired := false
	cur := s.After(time.Millisecond, func() { fired = true })
	if cur.slot != old.slot {
		t.Fatalf("slot not reused: %d then %d", old.slot, cur.slot)
	}
	if old.Active() || old.Stop() {
		t.Fatal("fired timer still controls its reused slot")
	}
	s.Run()
	if !fired {
		t.Fatal("stale Stop cancelled the slot's new event")
	}
}

// The same for a stopped timer, whose heap entry is still queued when
// its slot is reused.
func TestStaleStoppedTimerSparesReusedSlot(t *testing.T) {
	s := NewScheduler(1)
	old := s.After(time.Millisecond, func() { t.Fatal("stopped timer fired") })
	old.Stop()
	fired := false
	cur := s.After(time.Millisecond, func() { fired = true })
	if cur.slot != old.slot {
		t.Fatalf("slot not reused: %d then %d", old.slot, cur.slot)
	}
	if old.Active() || old.Stop() {
		t.Fatal("stopped timer still controls its reused slot")
	}
	if !cur.Active() || s.Pending() != 1 {
		t.Fatalf("new occupant active=%v pending=%d, want true 1", cur.Active(), s.Pending())
	}
	s.Run()
	if !fired {
		t.Fatal("new occupant did not fire")
	}
}

func TestZeroTimerInert(t *testing.T) {
	var z Timer
	if z.Active() || z.Stop() {
		t.Fatal("zero Timer is not inert")
	}
}

// Property: under a seeded random interleaving of At, Stop, Step and
// RunUntil, events fire exactly in the order a sort of the live events
// on (at, seq) predicts, Now follows, and Pending equals the live count.
func TestSchedulerMatchesSortedModel(t *testing.T) {
	type ev struct {
		at  Time
		seq int
		tm  Timer
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := NewScheduler(seed)
		var live []ev // the model: every event not yet fired or stopped
		var fired []int
		seq := 0
		// next removes and returns the model's earliest live event.
		next := func() ev {
			sort.Slice(live, func(i, j int) bool {
				return live[i].at < live[j].at || live[i].at == live[j].at && live[i].seq < live[j].seq
			})
			e := live[0]
			live = live[1:]
			return e
		}
		for op := 0; op < 2000; op++ {
			switch k := r.Intn(10); {
			case k < 5:
				id := seq
				seq++
				// Few distinct instants, so ties on at are common.
				at := s.Now().Add(Duration(r.Intn(8)) * time.Microsecond)
				live = append(live, ev{at: at, seq: id, tm: s.At(at, func() { fired = append(fired, id) })})
			case k < 7:
				if len(live) > 0 {
					i := r.Intn(len(live))
					if !live[i].tm.Stop() {
						t.Fatalf("seed %d: Stop of a live timer failed", seed)
					}
					live = append(live[:i], live[i+1:]...)
				}
			case k < 9:
				want := len(live) > 0
				var e ev
				if want {
					e = next()
				}
				fired = fired[:0]
				if got := s.Step(); got != want {
					t.Fatalf("seed %d: Step = %v, want %v", seed, got, want)
				}
				if want && (len(fired) != 1 || fired[0] != e.seq || s.Now() != e.at) {
					t.Fatalf("seed %d: Step fired %v at %v, want [%d] at %v", seed, fired, s.Now(), e.seq, e.at)
				}
			default:
				deadline := s.Now().Add(Duration(r.Intn(4)) * time.Microsecond)
				var want []int
				for len(live) > 0 {
					e := next()
					if e.at > deadline {
						live = append(live, e)
						break
					}
					want = append(want, e.seq)
				}
				fired = fired[:0]
				s.RunUntil(deadline)
				if len(fired) != len(want) {
					t.Fatalf("seed %d: RunUntil fired %v, want %v", seed, fired, want)
				}
				for i := range want {
					if fired[i] != want[i] {
						t.Fatalf("seed %d: RunUntil fired %v, want %v", seed, fired, want)
					}
				}
				if s.Now() != deadline {
					t.Fatalf("seed %d: clock %v after RunUntil(%v)", seed, s.Now(), deadline)
				}
			}
			if s.Pending() != len(live) {
				t.Fatalf("seed %d op %d: Pending = %d, want %d", seed, op, s.Pending(), len(live))
			}
			for _, e := range live {
				if !e.tm.Active() {
					t.Fatalf("seed %d: live event %d reports inactive", seed, e.seq)
				}
			}
		}
	}
}
