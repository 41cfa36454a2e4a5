// Package sim provides a deterministic discrete-event scheduler with a
// virtual clock. Every component of the simulated network (links, TCP
// endpoints, the service proxy, the EEM) schedules work on a single
// Scheduler, so whole-system experiments run repeatably and far faster
// than real time.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured in nanoseconds from the
// start of the run. The zero Time is the beginning of the simulation.
type Time int64

// Duration re-exports time.Duration for callers' convenience; virtual
// durations use the same unit as wall-clock durations.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String formats the time as a duration from the simulation start.
func (t Time) String() string { return Duration(t).String() }

// entry is one scheduled firing in the event heap. seq breaks ties so
// events scheduled at the same instant fire in scheduling order
// (deterministic FIFO); (at, seq) is a total order. slot indexes the
// callback in the scheduler's slot table.
type entry struct {
	at   Time
	seq  uint64
	slot uint32
}

func (a entry) before(b entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// slot holds the callback of one pending event. gen is the seq of the
// event occupying it; a free slot has a nil fn. A stopped event frees
// its slot at once and leaves its heap entry behind, which the pop
// that reaches it skips because its seq no longer matches.
type slot struct {
	fn  func()
	gen uint64
}

// Timer is a handle to a scheduled event. It is a value: copying it is
// free and the zero Timer is inactive. A handle whose event has fired
// or been stopped is inert, even after its slot holds a newer event.
type Timer struct {
	s    *Scheduler
	slot uint32
	gen  uint64
}

// Stop cancels the timer. It reports whether the call prevented the
// event from firing.
func (t Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.s.release(t.slot)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	if t.s == nil {
		return false
	}
	sl := &t.s.slots[t.slot]
	return sl.fn != nil && sl.gen == t.gen
}

// Scheduler owns the virtual clock and the pending-event queue: a
// 4-ary min-heap of value entries over a slot table whose free slots
// are recycled, so steady-state scheduling allocates nothing.
// The zero value is not usable; call NewScheduler.
type Scheduler struct {
	now   Time
	seq   uint64
	heap  []entry
	slots []slot
	free  []uint32 // free slot indexes, reused last-in first-out
	live  int      // slots holding a pending event
	rng   *rand.Rand
}

// NewScheduler returns a scheduler whose clock reads zero and whose
// random source is seeded with seed (deterministic per seed).
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source. All
// stochastic components (loss models, jitter) must draw from it so a
// run is reproducible from its seed.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at the absolute virtual time t. Scheduling in
// the past panics: it indicates a logic error in the caller. fn is
// stored as given, so a func value bound once schedules without
// allocating.
func (s *Scheduler) At(t Time, fn func()) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: scheduling a nil callback")
	}
	var i uint32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		i = uint32(len(s.slots))
		s.slots = append(s.slots, slot{})
	}
	seq := s.seq
	s.seq++
	s.slots[i] = slot{fn: fn, gen: seq}
	s.live++
	s.push(entry{at: t, seq: seq, slot: i})
	return Timer{s: s, slot: i, gen: seq}
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (s *Scheduler) After(d Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Step runs the earliest pending event, advancing the clock to its
// deadline. It reports whether an event ran.
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		if e := s.pop(); s.pending(e) {
			s.fire(e)
			return true
		}
	}
	return false
}

// RunUntil executes events in order until the queue is empty or the
// next event lies after deadline, then advances the clock to deadline
// if it has not passed it already.
func (s *Scheduler) RunUntil(deadline Time) {
	for len(s.heap) > 0 {
		// Peek; skip stopped events without advancing time.
		e := s.heap[0]
		live := s.pending(e)
		if live && e.at > deadline {
			break
		}
		s.pop()
		if live {
			s.fire(e)
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor advances the simulation by d.
func (s *Scheduler) RunFor(d Duration) { s.RunUntil(s.now.Add(d)) }

// Run drains the event queue completely. Use with care: components that
// re-arm periodic timers forever will never let Run return; give those
// components a stop mechanism or use RunUntil.
func (s *Scheduler) Run() {
	for s.Step() {
	}
}

// Pending returns the number of live (non-cancelled) events queued.
func (s *Scheduler) Pending() int { return s.live }

// pending reports whether e's event is still scheduled.
func (s *Scheduler) pending(e entry) bool {
	sl := &s.slots[e.slot]
	return sl.fn != nil && sl.gen == e.seq
}

// fire frees e's slot, advances the clock and runs the callback. The
// slot is free before the callback runs, so it may reschedule into it.
func (s *Scheduler) fire(e entry) {
	fn := s.slots[e.slot].fn
	s.release(e.slot)
	s.now = e.at
	fn()
}

// release frees slot i, cancelling the event in it.
func (s *Scheduler) release(i uint32) {
	s.slots[i].fn = nil
	s.free = append(s.free, i)
	s.live--
}

// push adds e to the heap.
func (s *Scheduler) push(e entry) {
	s.heap = append(s.heap, e)
	h := s.heap
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes and returns the earliest entry. The heap must not be
// empty.
func (s *Scheduler) pop() entry {
	h := s.heap
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	s.heap = h
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].before(h[m]) {
				m = j
			}
		}
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	return top
}
