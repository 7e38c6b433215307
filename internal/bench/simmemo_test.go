package bench

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	mat2c "mat2c"
	"mat2c/internal/core"
	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

// memoProgram compiles kernel name for the named target and returns a
// private copy of the kernel, so a test may change its reference.
func memoProgram(t *testing.T, name, target string) (*Kernel, *vm.Program, *pdesc.Processor) {
	t.Helper()
	kk := *KernelByName(name)
	proc := pdesc.Builtin(target)
	res, err := core.Compile(kk.Source, kk.Entry, kk.Params, core.Proposed(proc))
	if err != nil {
		t.Fatal(err)
	}
	return &kk, res.Program, proc
}

// freshRun simulates prog on a new machine for proc, bypassing the memo.
func freshRun(t *testing.T, k *Kernel, prog *vm.Program, proc *pdesc.Processor, n int, maxCycles int64) (*vm.Machine, error) {
	t.Helper()
	m := vm.NewMachine(proc)
	m.MaxCycles = maxCycles
	_, err := m.Run(prog, k.Case(n).Args()...)
	return m, err
}

func assertSameAccounting(t *testing.T, label string, got, want *vm.Machine) {
	t.Helper()
	if got.Cycles != want.Cycles || got.Executed != want.Executed || !reflect.DeepEqual(got.ClassCounts, want.ClassCounts) {
		t.Errorf("%s: cycles %d executed %d counts %v; want %d / %d / %v",
			label, got.Cycles, got.Executed, got.ClassCounts, want.Cycles, want.Executed, want.ClassCounts)
	}
}

// lookups returns c's run-events lookups so far that simulated, and
// those the events memo or a store tier served.
func lookups(c *mat2c.Cache) (runs, served uint64) {
	st := c.Stats()
	return st.EventMisses, st.EventMemoHits + st.EventHits
}

// TestSimulateOncePriceAfter: the first caller of a (program, kernel,
// size) simulates; later callers — on another processor, too — are
// priced, with exactly a fresh run's accounting.
func TestSimulateOncePriceAfter(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n = 64
	repriced := proc.Clone()
	repriced.Costs = map[string]int{"fmul": 7, "vstore": 3}
	c := mat2c.NewCache(0)
	ctx := doneCalls{context.Background(), make(chan struct{}, 4)}
	for i, p := range []*pdesc.Processor{proc, proc, repriced} {
		m := vm.NewMachine(p)
		if _, err := k.Simulate(ctx, c, m, prog, n); err != nil {
			t.Fatal(err)
		}
		want, err := freshRun(t, k, prog, p, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAccounting(t, p.Name, m, want)
		if runs, priced := lookups(c); runs != 1 || priced != uint64(i) {
			t.Fatalf("after call %d: %d simulations, %d priced; want 1 and %d", i, runs, priced, i)
		}
		if got := len(ctx.calls); got != 1 {
			t.Fatalf("after call %d: the program ran %d times, want once: later calls are priced", i, got)
		}
	}
}

// doneCalls counts the calls of its Done method, up to its channel's
// capacity. A run of the program calls it once as it starts
// (vm.Machine.RunContext), the fallback run after a declined price
// included, and so does a caller that waits on another caller's events
// lookup; a price never does. With one caller at a time it counts the
// program's runs.
type doneCalls struct {
	context.Context
	calls chan struct{}
}

func (c doneCalls) Done() <-chan struct{} {
	select {
	case c.calls <- struct{}{}:
	default:
	}
	return c.Context.Done()
}

// TestSimulateWithoutCacheRunsEveryCall: with a nil cache there is no
// memo to price from, so every call simulates.
func TestSimulateWithoutCacheRunsEveryCall(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n, calls = 64, 3
	want, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		cache *mat2c.Cache
		runs  int
	}{{"nil cache", nil, calls}, {"cache", mat2c.NewCache(0), 1}} {
		// Room for a Done call per call and more, so none is dropped.
		ctx := doneCalls{context.Background(), make(chan struct{}, 2*calls)}
		for i := 0; i < calls; i++ {
			m := vm.NewMachine(proc)
			if _, err := k.Simulate(ctx, tc.cache, m, prog, n); err != nil {
				t.Fatal(err)
			}
			assertSameAccounting(t, tc.name, m, want)
		}
		if got := len(ctx.calls); got != tc.runs {
			t.Errorf("%s: %d simulations in %d calls, want %d", tc.name, got, calls, tc.runs)
		}
	}
}

// cancelledCtx reports cancellation to the simulator's polls but never
// closes Done, so Simulate takes its turn and starts the run
// deterministically before the run observes the cancellation.
type cancelledCtx struct{ context.Context }

func (cancelledCtx) Done() <-chan struct{} { return make(chan struct{}) }
func (cancelledCtx) Err() error            { return context.Canceled }

// TestSimulateCancelledRunNotMemoized: a run stopped by cancellation
// leaves the entry empty; the next caller simulates the whole run again
// and gets a fresh run's accounting, and only that run is memoized.
func TestSimulateCancelledRunNotMemoized(t *testing.T) {
	k, prog, proc := memoProgram(t, "iirsos", "dspasip")
	const n = 256
	want, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want.Executed <= vm.CancelCheckStride {
		t.Fatalf("run executes %d instructions, too few to observe a cancellation", want.Executed)
	}
	c := mat2c.NewCache(0)
	_, err = k.Simulate(cancelledCtx{context.Background()}, c, vm.NewMachine(proc), prog, n)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simulate returned %v", err)
	}
	ctx := doneCalls{context.Background(), make(chan struct{}, 3)}
	for i := 0; i < 2; i++ {
		m := vm.NewMachine(proc)
		if _, err := k.Simulate(ctx, c, m, prog, n); err != nil {
			t.Fatal(err)
		}
		assertSameAccounting(t, "after cancellation", m, want)
	}
	if got := len(ctx.calls); got != 1 {
		t.Errorf("the program ran %d times after the cancellation, want once", got)
	}
	if runs, priced := lookups(c); runs != 2 || priced != 1 {
		t.Errorf("%d simulations and %d priced; want the cancelled run, one full run, then a price", runs, priced)
	}
}

// TestSimulateVerifyFailureNotMemoized: a run whose outputs miss the
// reference is a *VerifyError and is never memoized.
func TestSimulateVerifyFailureNotMemoized(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	k.Reference = func(args []interface{}) []interface{} {
		y := firRef(args)
		y[0].(*ir.Array).F[3] += 1
		return y
	}
	c := mat2c.NewCache(0)
	for i := 0; i < 2; i++ {
		_, err := k.Simulate(context.Background(), c, vm.NewMachine(proc), prog, 48)
		var verr *VerifyError
		if !errors.As(err, &verr) {
			t.Fatalf("call %d: %v, want a *VerifyError", i, err)
		}
	}
	if runs, priced := lookups(c); runs != 2 || priced != 0 {
		t.Errorf("%d simulations and %d priced; want every call to simulate", runs, priced)
	}
}

// TestSimulateConcurrentCallersShareOneRun: concurrent callers of one
// key wait for a single simulation and are priced from it.
func TestSimulateConcurrentCallersShareOneRun(t *testing.T) {
	k, prog, proc := memoProgram(t, "cfir", "dspasip")
	const n, callers = 64, 16
	want, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := mat2c.NewCache(0)
	ms := make([]*vm.Machine, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i] = vm.NewMachine(proc)
			_, errs[i] = k.Simulate(context.Background(), c, ms[i], prog, n)
		}(i)
	}
	wg.Wait()
	for i := range ms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertSameAccounting(t, "caller", ms[i], want)
	}
	if runs, priced := lookups(c); runs != 1 || priced != callers-1 {
		t.Errorf("%d simulations and %d priced; want 1 and %d", runs, priced, callers-1)
	}
}

// heldRun holds the simulation it starts: its first Done call, made as
// the run starts (vm.Machine.RunContext), closes started and returns
// once release is closed.
type heldRun struct {
	context.Context
	once             *sync.Once
	started, release chan struct{}
}

func (c heldRun) Done() <-chan struct{} {
	c.once.Do(func() {
		close(c.started)
		<-c.release
	})
	return c.Context.Done()
}

// TestSimulateConcurrentWaiterAfterFault: a caller that waited on a run
// which faulted on its own machine's cycle limit shares nothing, so the
// waiter simulates itself, gets a fresh run's accounting, and its run
// is the one memoized.
func TestSimulateConcurrentWaiterAfterFault(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n = 48
	c := mat2c.NewCache(0)
	held := heldRun{context.Background(), new(sync.Once), make(chan struct{}), make(chan struct{})}
	faulted := make(chan error, 1)
	go func() {
		m := vm.NewMachine(proc)
		m.MaxCycles = 10
		_, err := k.Simulate(held, c, m, prog, n)
		faulted <- err
	}()
	<-held.started
	// The waiter's first Done call is its wait on the held lookup; the
	// second starts its own run.
	waits := doneCalls{context.Background(), make(chan struct{}, 2)}
	m := vm.NewMachine(proc)
	waiter := make(chan error, 1)
	go func() {
		_, err := k.Simulate(waits, c, m, prog, n)
		waiter <- err
	}()
	select {
	case <-waits.calls:
	case <-time.After(10 * time.Second):
		t.Fatal("the second caller never waited on the first run")
	}
	close(held.release)
	if err := <-faulted; err == nil {
		t.Fatal("a run under a 10-cycle limit did not fault")
	}
	if err := <-waiter; err != nil {
		t.Fatalf("waiter: %v", err)
	}
	want, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	assertSameAccounting(t, "waiter", m, want)
	pricedIn(t, c, k, vm.NewMachine(proc), prog, n)
	if runs, priced := lookups(c); runs != 2 || priced != 1 {
		t.Errorf("%d simulations and %d priced; want the faulted run, the waiter's, then a price", runs, priced)
	}
}

// TestSimulateRunsWhenPricingDeclines: with a verified run memoized, a
// machine whose cycle limit is below the priced cycles runs the program
// itself and reports the reference engine's fault.
func TestSimulateRunsWhenPricingDeclines(t *testing.T) {
	k, prog, proc := memoProgram(t, "matmul", "dspasip")
	const n = 8
	c := mat2c.NewCache(0)
	if _, err := k.Simulate(context.Background(), c, vm.NewMachine(proc), prog, n); err != nil {
		t.Fatal(err)
	}
	full, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	limit := full.Cycles / 2
	m := vm.NewMachine(proc)
	m.MaxCycles = limit
	ctx := doneCalls{context.Background(), make(chan struct{}, 2)}
	_, err = k.Simulate(ctx, c, m, prog, n)
	if got := len(ctx.calls); got != 1 {
		t.Errorf("the limited machine ran the program %d times, want once after the declined price", got)
	}
	ref := vm.NewMachine(proc)
	ref.Engine = vm.EngineReference
	ref.MaxCycles = limit
	_, refErr := ref.Run(prog, k.Case(n).Args()...)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("limited simulate error %v, reference %v", err, refErr)
	}
	assertSameAccounting(t, "partial", m, ref)
	if runs, served := lookups(c); runs != 1 || served != 1 {
		t.Errorf("%d simulations and %d lookups served; want the first run, then events the price declined", runs, served)
	}
}

// TestMaxCyclesCheckedBeforeEachInstruction pins the cycle limit's
// rule: it is checked before each instruction, so fir at n=48 (4215
// cycles) completes under a 4214-cycle limit on both engines, its last
// instruction crossing the limit without a fault. Price declines that
// run's events, and Simulate reports the engines' accounting.
func TestMaxCyclesCheckedBeforeEachInstruction(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n, limit, cycles = 48, 4214, 4215
	args := k.Case(n).Args()
	full := vm.NewMachine(proc)
	_, ev, err := full.RunEvents(context.Background(), prog, args...)
	if err != nil || ev == nil || full.Cycles != cycles {
		t.Fatalf("unlimited run: cycles %d, events %v, err %v; want %d cycles with events", full.Cycles, ev != nil, err, cycles)
	}
	limited := func(engine string) *vm.Machine {
		m := vm.NewMachine(proc)
		m.MaxCycles, m.Engine = limit, engine
		return m
	}
	for _, engine := range []string{vm.EngineCompiled, vm.EngineReference} {
		m := limited(engine)
		if _, err := m.Run(prog, args...); err != nil {
			t.Fatalf("%s engine: %v", engine, err)
		}
		assertSameAccounting(t, engine+" engine under the limit", m, full)
	}
	if limited(vm.EngineCompiled).Price(prog, ev) {
		t.Error("Price priced a run over the machine's cycle limit")
	}
	// The memo holds the unlimited run's events, so the limited machine
	// is offered them first and must fall back to a run.
	c := mat2c.NewCache(0)
	if _, err := k.Simulate(context.Background(), c, vm.NewMachine(proc), prog, n); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{vm.EngineCompiled, vm.EngineReference} {
		m := limited(engine)
		ctx := doneCalls{context.Background(), make(chan struct{}, 2)}
		if _, err := k.Simulate(ctx, c, m, prog, n); err != nil {
			t.Fatalf("Simulate on the %s engine: %v", engine, err)
		}
		assertSameAccounting(t, "Simulate on the "+engine+" engine", m, full)
		if got := len(ctx.calls); got != 1 {
			t.Errorf("Simulate on the %s engine ran the program %d times, want once", engine, got)
		}
	}
}
