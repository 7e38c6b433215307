package bench

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"mat2c/internal/core"
	"mat2c/internal/ir"
	"mat2c/internal/pdesc"
	"mat2c/internal/vm"
)

// memoProgram compiles kernel name for the named target and returns a
// private copy of the kernel, so each test owns its memo keys.
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

// simDelta returns the memo's simulations and prices since before.
func simDelta(before SimMemoInfo) (runs, priced uint64) {
	now := SimMemoStats()
	return now.Misses - before.Misses, now.Hits - before.Hits
}

// TestSimulateOncePriceAfter: the first caller of a (program, kernel,
// size) simulates; later callers — on another processor, too — are
// priced, with exactly a fresh run's accounting.
func TestSimulateOncePriceAfter(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n = 64
	repriced := proc.Clone()
	repriced.Costs = map[string]int{"fmul": 7, "vstore": 3}
	before := SimMemoStats()
	for i, p := range []*pdesc.Processor{proc, proc, repriced} {
		m := vm.NewMachine(p)
		if err := k.Simulate(context.Background(), nil, m, prog, n); err != nil {
			t.Fatal(err)
		}
		want, err := freshRun(t, k, prog, p, n, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSameAccounting(t, p.Name, m, want)
		if runs, priced := simDelta(before); runs != 1 || priced != uint64(i) {
			t.Fatalf("after call %d: %d simulations, %d priced; want 1 and %d", i, runs, priced, i)
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
	before := SimMemoStats()
	err = k.Simulate(cancelledCtx{context.Background()}, nil, vm.NewMachine(proc), prog, n)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simulate returned %v", err)
	}
	for i := 0; i < 2; i++ {
		m := vm.NewMachine(proc)
		if err := k.Simulate(context.Background(), nil, m, prog, n); err != nil {
			t.Fatal(err)
		}
		assertSameAccounting(t, "after cancellation", m, want)
	}
	if runs, priced := simDelta(before); runs != 2 || priced != 1 {
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
	before := SimMemoStats()
	for i := 0; i < 2; i++ {
		err := k.Simulate(context.Background(), nil, vm.NewMachine(proc), prog, 48)
		var verr *VerifyError
		if !errors.As(err, &verr) {
			t.Fatalf("call %d: %v, want a *VerifyError", i, err)
		}
	}
	if runs, priced := simDelta(before); runs != 2 || priced != 0 {
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
	before := SimMemoStats()
	ms := make([]*vm.Machine, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := range ms {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ms[i] = vm.NewMachine(proc)
			errs[i] = k.Simulate(context.Background(), nil, ms[i], prog, n)
		}(i)
	}
	wg.Wait()
	for i := range ms {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertSameAccounting(t, "caller", ms[i], want)
	}
	if runs, priced := simDelta(before); runs != 1 || priced != callers-1 {
		t.Errorf("%d simulations and %d priced; want 1 and %d", runs, priced, callers-1)
	}
}

// TestSimulateConcurrentWaiterAfterFault: a caller that waited on a run
// which faulted on its own machine's cycle limit stores nothing, so the
// waiter simulates itself, gets a fresh run's accounting, and its run
// is the one memoized.
func TestSimulateConcurrentWaiterAfterFault(t *testing.T) {
	k, prog, proc := memoProgram(t, "fir", "dspasip")
	const n = 48
	started, release := make(chan struct{}), make(chan struct{})
	k.Reference = func(args []interface{}) []interface{} {
		// Holds the first run, which computes the oracle (once).
		close(started)
		<-release
		return firRef(args)
	}
	waits := make(chan struct{}, 4) // beyond the waits of one waiter: the hook never blocks
	sims.OnWait(func(simKey) { waits <- struct{}{} })
	t.Cleanup(func() { sims.OnWait(nil) })
	before := SimMemoStats()

	faulted := make(chan error, 1)
	go func() {
		m := vm.NewMachine(proc)
		m.MaxCycles = 10
		faulted <- k.Simulate(context.Background(), nil, m, prog, n)
	}()
	<-started
	m := vm.NewMachine(proc)
	waiter := make(chan error, 1)
	go func() { waiter <- k.Simulate(context.Background(), nil, m, prog, n) }()
	select {
	case <-waits:
	case <-time.After(10 * time.Second):
		t.Fatal("the second caller never waited on the first run")
	}
	close(release)
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
	if err := k.Simulate(context.Background(), nil, vm.NewMachine(proc), prog, n); err != nil {
		t.Fatal(err)
	}
	if runs, priced := simDelta(before); runs != 2 || priced != 1 {
		t.Errorf("%d simulations and %d priced; want the faulted run, the waiter's, then a price", runs, priced)
	}
}

// TestSimulateRunsWhenPricingDeclines: with a verified run memoized, a
// machine whose cycle limit is below the priced cycles runs the program
// itself and reports the reference engine's fault.
func TestSimulateRunsWhenPricingDeclines(t *testing.T) {
	k, prog, proc := memoProgram(t, "matmul", "dspasip")
	const n = 8
	if err := k.Simulate(context.Background(), nil, vm.NewMachine(proc), prog, n); err != nil {
		t.Fatal(err)
	}
	full, err := freshRun(t, k, prog, proc, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	limit := full.Cycles / 2
	before := SimMemoStats()
	m := vm.NewMachine(proc)
	m.MaxCycles = limit
	err = k.Simulate(context.Background(), nil, m, prog, n)
	ref := vm.NewMachine(proc)
	ref.Engine = vm.EngineReference
	ref.MaxCycles = limit
	_, refErr := ref.Run(prog, k.Case(n).Args()...)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Fatalf("limited simulate error %v, reference %v", err, refErr)
	}
	assertSameAccounting(t, "partial", m, ref)
	if runs, priced := simDelta(before); runs != 1 || priced != 0 {
		t.Errorf("%d simulations and %d priced; want one real run", runs, priced)
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
	if err := k.Simulate(context.Background(), nil, vm.NewMachine(proc), prog, n); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{vm.EngineCompiled, vm.EngineReference} {
		m := limited(engine)
		if err := k.Simulate(context.Background(), nil, m, prog, n); err != nil {
			t.Fatalf("Simulate on the %s engine: %v", engine, err)
		}
		assertSameAccounting(t, "Simulate on the "+engine+" engine", m, full)
	}
}
