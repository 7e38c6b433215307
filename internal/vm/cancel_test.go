package vm

import (
	"context"
	"errors"
	"testing"
	"time"

	"mat2c/internal/sema"
)

// spinSrc is a long-running kernel: ~5 VM instructions per iteration,
// so iteration counts translate directly into executed-instruction
// budgets for the cancellation-bound assertions.
const spinSrc = `function y = spin(n)
y = 0;
for i = 1:n
y = y + i;
end
end`

func spinProgram(t *testing.T) (*Program, *Machine, *Machine) {
	t.Helper()
	f, p := buildIR(t, spinSrc, "dspasip", true, sema.ScalarType(sema.Real))
	prog, err := Lower(f)
	if err != nil {
		t.Fatalf("vm lower: %v", err)
	}
	ref := NewMachine(p)
	ref.Engine = EngineReference
	comp := NewMachine(p)
	comp.Engine = EngineCompiled
	return prog, ref, comp
}

func TestRunContextCancelledExitsWithinStride(t *testing.T) {
	prog, ref, comp := spinProgram(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the first poll must observe it

	for _, m := range []*Machine{ref, comp} {
		_, err := m.RunContext(ctx, prog, 1e9)
		var ce *CancelledError
		if !errors.As(err, &ce) {
			t.Fatalf("engine %s: err = %v, want *CancelledError", m.Engine, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("engine %s: err does not unwrap to context.Canceled: %v", m.Engine, err)
		}
		// The run must stop at the first poll, i.e. within one stride of
		// simulated instructions — not after the billion-iteration loop.
		if ce.Executed > CancelCheckStride || m.Executed > CancelCheckStride {
			t.Errorf("engine %s: executed %d (machine %d) instructions before observing cancellation, want <= %d",
				m.Engine, ce.Executed, m.Executed, CancelCheckStride)
		}
	}
}

// pollCtx reports cancellation from its k-th Err call on, and counts
// the calls, so a run is cancelled at a chosen poll, decided by the
// polls alone. It must wrap a cancellable context: the engines do not
// poll a context whose Done is nil.
type pollCtx struct {
	context.Context
	k, polls int
}

func (c *pollCtx) Err() error {
	if c.polls++; c.polls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestRunContextCancelMidRun: cancellation first seen at a run's k-th
// poll stops each engine at that poll: no more Err calls, and the
// instructions executed lie within the one CancelCheckStride that ends
// at the k-th stride.
func TestRunContextCancelMidRun(t *testing.T) {
	const k = 3
	prog, ref, comp := spinProgram(t)
	for _, m := range []*Machine{ref, comp} {
		parent, cancel := context.WithCancel(context.Background())
		ctx := &pollCtx{Context: parent, k: k}
		// 100000 iterations run far past poll k, and end a run that
		// never polls quickly.
		_, err := m.RunContext(ctx, prog, 1e5)
		cancel()
		var ce *CancelledError
		if !errors.As(err, &ce) || !errors.Is(err, context.Canceled) {
			t.Fatalf("engine %s: err = %v, want a *CancelledError wrapping context.Canceled", m.Engine, err)
		}
		if ctx.polls != k {
			t.Errorf("engine %s: polled %d times, want to stop at poll %d", m.Engine, ctx.polls, k)
		}
		if ce.Executed <= (k-1)*CancelCheckStride || ce.Executed > k*CancelCheckStride {
			t.Errorf("engine %s: stopped after %d instructions, want within one stride of poll %d (%d)",
				m.Engine, ce.Executed, k, k*CancelCheckStride)
		}
	}
}

func TestRunContextDeadlineUnwraps(t *testing.T) {
	prog, _, comp := spinProgram(t)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := comp.RunContext(ctx, prog, 1e9)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestRunContextAccountingUnchanged proves the cancellation poll does
// not perturb cycle accounting: a run under a live (never-fired)
// context is charge-for-charge identical to a plain Run, per engine.
func TestRunContextAccountingUnchanged(t *testing.T) {
	prog, ref, comp := spinProgram(t)
	for _, m := range []*Machine{ref, comp} {
		out, err := m.Run(prog, 20000.0)
		if err != nil {
			t.Fatalf("engine %s: Run: %v", m.Engine, err)
		}
		wantCycles, wantExec := m.Cycles, m.Executed
		wantCounts := make(map[string]int64, len(m.ClassCounts))
		for k, v := range m.ClassCounts {
			wantCounts[k] = v
		}

		ctx, cancel := context.WithCancel(context.Background())
		out2, err := m.RunContext(ctx, prog, 20000.0)
		cancel()
		if err != nil {
			t.Fatalf("engine %s: RunContext: %v", m.Engine, err)
		}
		if out[0] != out2[0] {
			t.Errorf("engine %s: results differ: %v vs %v", m.Engine, out[0], out2[0])
		}
		if m.Cycles != wantCycles || m.Executed != wantExec {
			t.Errorf("engine %s: cycles/executed %d/%d under ctx, want %d/%d",
				m.Engine, m.Cycles, m.Executed, wantCycles, wantExec)
		}
		if len(m.ClassCounts) != len(wantCounts) {
			t.Errorf("engine %s: class count size changed", m.Engine)
		}
		for k, v := range wantCounts {
			if m.ClassCounts[k] != v {
				t.Errorf("engine %s: class %s = %d under ctx, want %d", m.Engine, k, m.ClassCounts[k], v)
			}
		}
	}
}
