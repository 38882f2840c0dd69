package sim

import (
	"errors"
	"strings"
	"testing"
)

var errBoom = errors.New("boom")

// explode is the panic site the recovered stacks must show.
func explode() { panic(errBoom) }

// recoverRun runs k up to until and returns the value Run panicked with.
func recoverRun(k *Kernel, until Time) (r any) {
	defer func() { r = recover() }()
	k.Run(until)
	return nil
}

// requireProcPanic checks that r is a *ProcPanic naming proc, carrying the
// stack of the explode call and wrapping errBoom.
func requireProcPanic(t *testing.T, r any, proc string) {
	t.Helper()
	pp, ok := r.(*ProcPanic)
	if !ok {
		t.Fatalf("Run panicked with %T %v, want *ProcPanic", r, r)
	}
	if pp.Proc != proc {
		t.Errorf("ProcPanic.Proc = %q, want %q", pp.Proc, proc)
	}
	if pp.Value != errBoom || !errors.Is(pp, errBoom) {
		t.Errorf("ProcPanic.Value = %v, want errBoom reachable", pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "sim.explode") {
		t.Errorf("ProcPanic.Stack does not show the panic site:\n%s", pp.Stack)
	}
	if !strings.Contains(pp.Error(), proc) || !strings.Contains(pp.Error(), "sim.explode") {
		t.Errorf("ProcPanic.Error() lacks the process or the stack: %s", pp.Error())
	}
}

// requireShutdownClean shuts k down and checks that no process or
// coroutine is left behind.
func requireShutdownClean(t *testing.T, k *Kernel) {
	t.Helper()
	k.Shutdown()
	if k.Live() != 0 {
		t.Errorf("Live = %d after Shutdown, want 0", k.Live())
	}
	if s := k.Stats(); s.LiveGoroutines != 0 {
		t.Errorf("LiveGoroutines = %d after Shutdown, want 0", s.LiveGoroutines)
	}
}

// TestProcPanicSurfacesFromRun: a panic in a process body reaches the
// caller of Run as a *ProcPanic, the panicking process is retired, and the
// processes still blocked are killed by Shutdown.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel()
	srv := NewServer(k, "cpu", 1)
	k.Spawn("holder", func(p *Proc) { srv.Use(p, Second) })
	k.Spawn("queued", func(p *Proc) { srv.Use(p, Second) })
	k.Spawn("bomb", func(p *Proc) {
		p.Wait(Millisecond)
		explode()
	})
	k.Spawn("done", func(p *Proc) {}) // leaves a parked worker behind
	requireProcPanic(t, recoverRun(k, 100*Millisecond), "bomb")
	// Fatal, not Error: Shutdown would spin on an unretired process.
	if k.Live() != 2 {
		t.Fatalf("Live = %d after the panic, want 2 (holder, queued)", k.Live())
	}
	requireShutdownClean(t, k)
}

// TestInlineFnPanicSurfacesFromRun: an event function that panics while a
// blocked process is dispatching it inline surfaces from Run as a
// *ProcPanic naming that process; Shutdown still cleans up.
func TestInlineFnPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) { p.Wait(Second) })
	k.Spawn("dispatcher", func(p *Proc) { p.Wait(2 * Millisecond) })
	k.At(Millisecond, explode)
	requireProcPanic(t, recoverRun(k, 100*Millisecond), "dispatcher")
	if k.Live() != 1 {
		t.Fatalf("Live = %d after the panic, want 1 (sleeper)", k.Live())
	}
	if k.Stats().InlineWakes != 0 {
		t.Errorf("InlineWakes = %d, want 0: the panic must come before any wake", k.Stats().InlineWakes)
	}
	requireShutdownClean(t, k)
}

// TestRootFnPanicSurfacesFromRun: an event function dispatched by the root
// loop panics with its own value, unwrapped. The sleeper hands the ball to
// the second process, whose body returns at once, so the root loop
// dispatches explode itself.
func TestRootFnPanicSurfacesFromRun(t *testing.T) {
	k := NewKernel()
	k.Spawn("sleeper", func(p *Proc) { p.Wait(Second) })
	k.Spawn("done", func(p *Proc) {})
	k.At(Millisecond, explode)
	if r := recoverRun(k, 100*Millisecond); r != errBoom {
		t.Fatalf("Run panicked with %v, want errBoom", r)
	}
	requireShutdownClean(t, k)
}
