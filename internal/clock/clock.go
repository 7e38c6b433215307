// Package clock is the one time source of the fleet dispatcher and the
// remote artifact tier: the wall clock in production, a fake clock that
// tests move by hand, and the jittered exponential backoff that both
// retry loops share.
package clock

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// Clock tells the time, sleeps, and calls functions later.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
	// AfterFunc calls f once d has passed, unless the returned timer is
	// stopped first.
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending AfterFunc call. Stop keeps it from happening, and
// reports whether it did so.
type Timer interface{ Stop() bool }

// Real is the wall clock.
var Real Clock = realClock{}

type realClock struct{}

func (realClock) Now() time.Time                            { return time.Now() }
func (realClock) Sleep(d time.Duration)                     { time.Sleep(d) }
func (realClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

// Backoff returns the delay before retry attempt (0-based): base
// doubled per attempt up to max, jittered uniformly in [0.5x, 1.5x) so
// that clients retrying against one peer fall out of step.
func Backoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for ; attempt > 0 && d < max; attempt-- {
		d *= 2
	}
	d = min(d, max)
	return time.Duration(float64(d) * (0.5 + rand.Float64()))
}

// Fake is a Clock that moves only when told to. Advance moves it forward
// and makes the calls that fall due, in deadline order, on the calling
// goroutine. Sleep is an Advance made by the sleeper itself and returns
// at once, so a retry loop on one goroutine runs through its backoffs
// with nobody driving the clock.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	timers  []*fakeTimer
	changed chan struct{} // closed and replaced when timers changes
}

type fakeTimer struct {
	f    *Fake
	when time.Time
	call func()
}

// NewFake returns a fake clock set to a fixed instant.
func NewFake() *Fake {
	return &Fake{now: time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC), changed: make(chan struct{})}
}

func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *Fake) Sleep(d time.Duration) { f.Advance(d) }

// AfterFunc calls f at once, on the calling goroutine, when d <= 0.
func (f *Fake) AfterFunc(d time.Duration, call func()) Timer {
	t := &fakeTimer{f: f, call: call}
	if d <= 0 {
		call()
		return t
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	t.when = f.now.Add(d)
	f.timers = append(f.timers, t)
	f.notify()
	return t
}

func (t *fakeTimer) Stop() bool {
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.timers)
	f.timers = slices.DeleteFunc(f.timers, func(u *fakeTimer) bool { return u == t })
	if len(f.timers) == n {
		return false
	}
	f.notify()
	return true
}

// notify wakes the goroutines waiting for the set of timers to change.
// Call with f.mu held.
func (f *Fake) notify() {
	close(f.changed)
	f.changed = make(chan struct{})
}

// Advance moves the clock forward by d and makes every call due by then.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	var due []*fakeTimer
	f.timers = slices.DeleteFunc(f.timers, func(t *fakeTimer) bool {
		if t.when.After(f.now) {
			return false
		}
		due = append(due, t)
		return true
	})
	if len(due) > 0 {
		f.notify()
	}
	f.mu.Unlock()
	slices.SortStableFunc(due, func(a, b *fakeTimer) int { return a.when.Compare(b.when) })
	for _, t := range due {
		t.call()
	}
}

// Next reports how long until the earliest pending call is due (ok is
// false when none is pending), and returns a channel that is closed the
// next time a call is added, stopped or made.
func (f *Fake) Next() (d time.Duration, ok bool, changed <-chan struct{}) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, t := range f.timers {
		if left := t.when.Sub(f.now); !ok || left < d {
			d, ok = left, true
		}
	}
	return d, ok, f.changed
}

// BlockUntil waits until exactly n calls are pending.
func (f *Fake) BlockUntil(n int) {
	for {
		f.mu.Lock()
		k, changed := len(f.timers), f.changed
		f.mu.Unlock()
		if k == n {
			return
		}
		<-changed
	}
}
