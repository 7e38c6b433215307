package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
)

// inflight registers enough workers to take n dispatches and takes them,
// in random order.
func inflight(t *testing.T, c *Coordinator, rng *rand.Rand, n int) []*worker {
	t.Helper()
	for i := 0; i < (n+Window-1)/Window; i++ {
		c.Register(fmt.Sprintf("http://w%d", i), 1)
	}
	out := make([]*worker, n)
	for i := range out {
		w, _ := c.pickWorker()
		if w == nil {
			t.Fatalf("dispatch %d found no worker", i)
		}
		out[i] = w
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// parked is a context that tells the test each time Quiesce is about
// to wait on it.
type parked struct {
	context.Context
	waits chan struct{}
}

func (p parked) Done() <-chan struct{} {
	p.waits <- struct{}{}
	return p.Context.Done()
}

// TestQuiesceWaitsForInflight: Quiesce waits while any RPC is in
// flight, wakes as each one settles, and returns 0 once the last has;
// nothing is recorded as abandoned.
func TestQuiesceWaitsForInflight(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := NewCoordinator(Config{})
			out := inflight(t, c, rng, 1+rng.Intn(6))
			ctx := parked{context.Background(), make(chan struct{})}
			n := -1
			done := make(chan struct{})
			go func() {
				defer close(done)
				n = c.Quiesce(ctx)
			}()
			for _, w := range out {
				select {
				case <-ctx.waits:
				case <-done:
					t.Fatalf("Quiesce returned %d with RPCs in flight", n)
				}
				c.release(w, rng.Intn(2) == 0, nil)
			}
			<-done
			if n != 0 {
				t.Fatalf("quiesce abandoned %d units, want 0", n)
			}
			if st := c.Status(); st.UnitsAbandoned != 0 || st.InflightRPCs != 0 {
				t.Fatalf("after quiesce: %+v", st)
			}
		})
	}
}

// TestQuiesceRecordsAbandoned: a grace period ending with RPCs still out
// records exactly those as abandoned, instead of dropping them silently,
// and a later Quiesce adds only what is out then.
func TestQuiesceRecordsAbandoned(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := NewCoordinator(Config{})
			total := 1 + rng.Intn(6)
			out := inflight(t, c, rng, total)
			settled := rng.Intn(total)
			ctx, cancel := context.WithCancel(context.Background())
			n := -1
			done := make(chan struct{})
			go func() {
				defer close(done)
				n = c.Quiesce(ctx)
			}()
			for _, w := range out[:settled] {
				c.release(w, true, nil)
			}
			cancel()
			<-done
			if want := total - settled; n != want {
				t.Fatalf("quiesce reported %d abandoned units, want %d", n, want)
			}
			if st := c.Status(); st.UnitsAbandoned != uint64(n) {
				t.Fatalf("units_abandoned = %d, want %d", st.UnitsAbandoned, n)
			}
			for _, w := range out[settled:] {
				c.release(w, true, nil)
			}
			if again := c.Quiesce(ctx); again != 0 || c.Status().UnitsAbandoned != uint64(n) {
				t.Fatalf("a drained coordinator's Quiesce under an expired context: %d abandoned, total %d",
					again, c.Status().UnitsAbandoned)
			}
		})
	}
}
