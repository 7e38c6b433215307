package core_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mat2c/internal/bench"
	"mat2c/internal/core"
	"mat2c/internal/pdesc"
)

// flightGate holds the first compile that reaches instruction
// selection, after the vectorizer has made its queries, until open is
// called, and reports every back-memo wait on waits. When pass is set,
// each compile at the gate then returns (or panics with) what pass
// does for it; first marks the held one.
type flightGate struct {
	held, release chan struct{}
	once          sync.Once
	// waits is buffered beyond any test's waits, so reporting one never
	// blocks a compile.
	waits chan struct{}
}

// open lets the held compile go on; it may be called more than once.
func (g *flightGate) open() { g.once.Do(func() { close(g.release) }) }

func newFlightGate(t *testing.T, pass func(first bool) error) *flightGate {
	t.Helper()
	g := &flightGate{held: make(chan struct{}), release: make(chan struct{}), waits: make(chan struct{}, 64)}
	var held atomic.Bool
	t.Cleanup(g.open) // a test that stops early leaves no compile held
	t.Cleanup(core.SetBackHooks(func() error {
		first := held.CompareAndSwap(false, true)
		if first {
			close(g.held)
			<-g.release
		}
		if pass == nil {
			return nil
		}
		return pass(first)
	}, func() { g.waits <- struct{}{} }))
	return g
}

// await receives from ch, failing the test if nothing arrives in time.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		var zero T
		return zero
	}
}

// compiled is one compile's outcome.
type compiled struct {
	res *core.Result
	err error
}

// compileAsync compiles k on p (the paper's pipeline, no C) in a new
// goroutine and delivers the outcome on the returned channel.
func compileAsync(ctx context.Context, k *bench.Kernel, p *pdesc.Processor) <-chan compiled {
	out := make(chan compiled, 1)
	go func() {
		res, err := core.CompileContext(ctx, k.Source, k.Entry, k.Params, core.Proposed(p))
		out <- compiled{res, err}
	}()
	return out
}

// coldFingerprint compiles k on p with the back-half memo cleared.
func coldFingerprint(t *testing.T, k *bench.Kernel, p *pdesc.Processor) string {
	t.Helper()
	core.ClearBackMemo()
	res, err := core.Compile(k.Source, k.Entry, k.Params, core.Proposed(p))
	if err != nil {
		t.Fatalf("%s on %s: %v", k.Name, p.Name, err)
	}
	return fingerprint(res)
}

// costSiblings derives n clones of dspasip that differ only in cycle
// costs.
func costSiblings(t *testing.T, n int) []*pdesc.Processor {
	t.Helper()
	base := pdesc.Builtin("dspasip")
	out := []*pdesc.Processor{base}
	for i := 1; i < n; i++ {
		p, err := base.Derive(base.Name, func(q *pdesc.Processor) {
			q.Costs = map[string]int{"load": 1 + i, "vop": 2 + i}
		})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// derive returns dspasip changed by edit.
func derive(t *testing.T, name string, edit func(*pdesc.Processor)) *pdesc.Processor {
	t.Helper()
	p, err := pdesc.Builtin("dspasip").Derive(name, edit)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFlightCostSiblingsOneMiss: goroutines that compile one kernel on
// cost siblings while the first of them is mid-compile all wait for it,
// so the back half runs once and every result equals a cold compile.
func TestFlightCostSiblingsOneMiss(t *testing.T) {
	k := bench.KernelByName("fir")
	procs := costSiblings(t, 6)
	want := coldFingerprint(t, k, procs[0])
	core.ResetMemos()
	g := newFlightGate(t, nil)

	outs := []<-chan compiled{compileAsync(context.Background(), k, procs[0])}
	await(t, g.held, "the first compile to reach the gate")
	for _, p := range procs[1:] {
		outs = append(outs, compileAsync(context.Background(), k, p))
	}
	for range procs[1:] {
		await(t, g.waits, "a cost sibling to wait")
	}
	g.open()
	for i, out := range outs {
		c := await(t, out, "a compile to finish")
		switch {
		case c.err != nil:
			t.Errorf("compile %d: %v", i, c.err)
		case fingerprint(c.res) != want:
			t.Errorf("compile %d differs from a cold compile", i)
		case c.res.Processor() != procs[i]:
			t.Errorf("compile %d reports processor %p, want its own", i, c.res.Processor())
		}
	}
	st := core.MemoStats()
	n := uint64(len(procs))
	if st.Back.Misses != 1 || st.Back.Hits != n-1 || st.Back.Waits != n-1 || st.Back.Entries != 1 || st.Front.Misses != 1 {
		t.Errorf("memo stats %+v, want 1 back miss, %d hits and waits, 1 stored compile, 1 front miss", st, n-1)
	}
}

// TestFlightDisagreeingAnswerDoesNotWait: a processor that answers a
// lane query the held compile has made differently compiles at once,
// while that compile is still held, and gets what a cold compile gets.
func TestFlightDisagreeingAnswerDoesNotWait(t *testing.T) {
	for _, tc := range []struct {
		kernel string
		edit   func(*pdesc.Processor)
	}{
		{"fir", func(q *pdesc.Processor) { q.SIMDWidth = 8 }},
		{"cfir", func(q *pdesc.Processor) { q.ComplexLanes = 1 }},
	} {
		t.Run(tc.kernel, func(t *testing.T) {
			k := bench.KernelByName(tc.kernel)
			base, other := pdesc.Builtin("dspasip"), derive(t, "dspasip-lanes", tc.edit)
			want := coldFingerprint(t, k, other)
			if want == coldFingerprint(t, k, base) {
				t.Fatalf("%s compiles alike on both targets; the test needs a lane query that tells them apart", k.Name)
			}
			core.ResetMemos()
			g := newFlightGate(t, nil)
			leader := compileAsync(context.Background(), k, base)
			await(t, g.held, "the first compile to reach the gate")
			beside := compileAsync(context.Background(), k, other)
			var c compiled
			select {
			case c = <-beside:
			case <-g.waits:
				t.Error("a processor with other lane counts waited for the held compile")
			}
			g.open()
			if c.res == nil && c.err == nil {
				c = await(t, beside, "the compile beside the held one to finish")
			}
			if l := await(t, leader, "the held compile to finish"); l.err != nil {
				t.Fatal(l.err)
			}
			if c.err != nil {
				t.Fatal(c.err)
			}
			if fingerprint(c.res) != want {
				t.Error("compile beside a held one differs from a cold compile")
			}
			if st := core.MemoStats().Back; st.Misses != 2 || st.Entries != 2 {
				t.Errorf("back memo %+v, want 2 misses and 2 stored compiles", st)
			}
		})
	}
}

// TestFlightWaiterMatchesAgain: a processor that agrees with the held
// compile's answers so far (its lane counts) but not with a query
// instruction selection makes later waits, then matches the landed
// compile like any lookup, misses, and compiles what a cold compile
// gets.
func TestFlightWaiterMatchesAgain(t *testing.T) {
	k := bench.KernelByName("fir")
	base := pdesc.Builtin("dspasip")
	bare := derive(t, "dspasip-bare", func(q *pdesc.Processor) { q.Instructions = nil })
	want := coldFingerprint(t, k, bare)
	if want == coldFingerprint(t, k, base) {
		t.Fatal("fir compiles alike with and without custom instructions")
	}
	core.ResetMemos()
	g := newFlightGate(t, nil)
	leader := compileAsync(context.Background(), k, base)
	await(t, g.held, "the first compile to reach the gate")
	waiter := compileAsync(context.Background(), k, bare)
	await(t, g.waits, "the bare processor to wait")
	g.open()
	if c := await(t, leader, "the held compile to finish"); c.err != nil {
		t.Fatal(c.err)
	}
	c := await(t, waiter, "the waiter to finish")
	if c.err != nil {
		t.Fatal(c.err)
	}
	if fingerprint(c.res) != want {
		t.Error("the waiter took a compile it does not match")
	}
	if st := core.MemoStats().Back; st.Misses != 2 || st.Hits != 0 || st.Waits != 1 || st.Entries != 2 {
		t.Errorf("back memo %+v, want 2 misses, no hit, 1 wait and 2 stored compiles", st)
	}
}

// TestFlightWaiterCancelled: a waiter whose context ends returns an
// error that unwraps to ctx.Err() without disturbing the held compile.
func TestFlightWaiterCancelled(t *testing.T) {
	k := bench.KernelByName("fir")
	procs := costSiblings(t, 2)
	core.ResetMemos()
	g := newFlightGate(t, nil)
	leader := compileAsync(context.Background(), k, procs[0])
	await(t, g.held, "the first compile to reach the gate")
	ctx, cancel := context.WithCancel(context.Background())
	waiter := compileAsync(ctx, k, procs[1])
	await(t, g.waits, "the cost sibling to wait")
	cancel()
	if c := await(t, waiter, "the cancelled waiter to return"); !errors.Is(c.err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", c.err)
	}
	g.open()
	if c := await(t, leader, "the held compile to finish"); c.err != nil {
		t.Fatal(c.err)
	}
	if st := core.MemoStats().Back; st.Misses != 2 || st.Hits != 0 || st.Entries != 1 {
		t.Errorf("back memo %+v, want 2 misses (one compiled, one abandoned) and 1 stored compile", st)
	}
}

// TestFlightFailedLeaderWakesWaiters: when the held compile fails, its
// waiters wake, look up again, and compile themselves (failing too
// here); nothing is stored.
func TestFlightFailedLeaderWakesWaiters(t *testing.T) {
	k := bench.KernelByName("fir")
	procs := costSiblings(t, 4)
	errGate := errors.New("gate refused the compile")
	core.ResetMemos()
	g := newFlightGate(t, func(bool) error { return errGate })
	outs := []<-chan compiled{compileAsync(context.Background(), k, procs[0])}
	await(t, g.held, "the first compile to reach the gate")
	for _, p := range procs[1:] {
		outs = append(outs, compileAsync(context.Background(), k, p))
	}
	for range procs[1:] {
		await(t, g.waits, "a cost sibling to wait")
	}
	g.open()
	for i, out := range outs {
		if c := await(t, out, "a compile to finish"); !errors.Is(c.err, errGate) {
			t.Errorf("compile %d returned %v, want the gate's error", i, c.err)
		}
	}
	st := core.MemoStats().Back
	if n := uint64(len(procs)); st.Entries != 0 || st.Hits != 0 || st.Misses != n {
		t.Errorf("back memo %+v, want nothing stored, no hit and %d misses", st, n)
	}
}

// TestFlightPanickedLeaderWakesWaiters: a compile that panics still
// lands its flight, so its waiters wake and compile themselves.
func TestFlightPanickedLeaderWakesWaiters(t *testing.T) {
	k := bench.KernelByName("fir")
	procs := costSiblings(t, 2)
	want := coldFingerprint(t, k, procs[1])
	core.ResetMemos()
	g := newFlightGate(t, func(first bool) error {
		if first {
			panic("gate panics in the held compile")
		}
		return nil
	})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		core.Compile(k.Source, k.Entry, k.Params, core.Proposed(procs[0]))
	}()
	await(t, g.held, "the first compile to reach the gate")
	waiter := compileAsync(context.Background(), k, procs[1])
	await(t, g.waits, "the cost sibling to wait")
	g.open()
	if p := await(t, panicked, "the held compile to panic"); p == nil {
		t.Error("the held compile did not panic")
	}
	c := await(t, waiter, "the waiter to finish")
	if c.err != nil {
		t.Fatal(c.err)
	}
	if fingerprint(c.res) != want {
		t.Error("the waiter's compile differs from a cold compile")
	}
	if st := core.MemoStats().Back; st.Misses != 2 || st.Entries != 1 {
		t.Errorf("back memo %+v, want 2 misses and 1 stored compile", st)
	}
}
