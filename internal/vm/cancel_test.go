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

func TestRunContextCancelMidRun(t *testing.T) {
	prog, ref, comp := spinProgram(t)
	for _, m := range []*Machine{ref, comp} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := m.RunContext(ctx, prog, 1e9)
			done <- err
		}()
		time.Sleep(10 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("engine %s: err = %v, want context.Canceled", m.Engine, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("engine %s: run did not observe cancellation", m.Engine)
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
