package clock

import (
	"fmt"
	"testing"
	"time"
)

// TestBackoffBoundsAndJitter: delays grow exponentially, stay within
// the jitter envelope, and cap at max — also for attempts whose
// doubling would overflow.
func TestBackoffBoundsAndJitter(t *testing.T) {
	const base, max = 100 * time.Millisecond, 5 * time.Second
	for attempt := 0; attempt < 80; attempt++ {
		want := max
		if attempt < 6 {
			want = base << uint(attempt)
		}
		for i := 0; i < 20; i++ {
			d := Backoff(base, max, attempt)
			if d < want/2 || d >= want*3/2 {
				t.Fatalf("Backoff(%d) = %v outside [%v, %v)", attempt, d, want/2, want*3/2)
			}
		}
	}
}

// TestFakeTimers: calls are made, in deadline order, when the clock
// passes their deadlines and not before; Stop keeps one from being made;
// Sleep moves the clock; Next and BlockUntil see the pending set.
func TestFakeTimers(t *testing.T) {
	f := NewFake()
	start := f.Now()
	if _, ok, _ := f.Next(); ok {
		t.Fatal("a new clock has a pending call")
	}
	var made []string
	call := func(name string) func() { return func() { made = append(made, name) } }
	f.AfterFunc(2*time.Second, call("a"))
	f.AfterFunc(time.Second, call("b"))
	c := f.AfterFunc(3*time.Second, call("c"))
	f.AfterFunc(4*time.Second, call("d"))
	f.BlockUntil(4)
	if d, ok, _ := f.Next(); !ok || d != time.Second {
		t.Fatalf("Next = %v %v, want 1s", d, ok)
	}

	_, _, changed := f.Next()
	f.Advance(time.Second - 1)
	if len(made) != 0 {
		t.Fatalf("%v made before their deadlines", made)
	}
	f.Sleep(1)
	if fmt.Sprint(made) != "[b]" {
		t.Fatalf("Sleep to the first deadline made %v, want [b]", made)
	}
	select {
	case <-changed:
	default:
		t.Fatal("making a call did not signal a change")
	}
	if !c.Stop() || c.Stop() {
		t.Fatal("Stop of a pending call must report true once")
	}
	f.Advance(time.Hour)
	if fmt.Sprint(made) != "[b a d]" {
		t.Fatalf("Advance past every deadline made %v, want [b a d]", made)
	}
	if got := f.Now().Sub(start); got != time.Hour+time.Second {
		t.Fatalf("clock moved %v, want 1h1s", got)
	}
	if f.AfterFunc(0, call("now")).Stop() || made[len(made)-1] != "now" {
		t.Fatal("a zero-length call was not made at once")
	}
}
