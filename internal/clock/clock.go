// Package clock abstracts time for the real-time runtimes (nettrans's
// sockets and virtual wire, the ssbyz-node daemon): a Clock interface
// mirroring the package time operations those layers use, a Real implementation that delegates to the wall clock, and a
// deterministic Fake (fake.go) that fires timers in a total
// (deadline, registration) order under explicit Advance/Step control.
//
// The point is ROADMAP item 5 — one protocol core, three runtimes: the
// discrete-event simulator owns virtual time natively; with the Clock
// injected, the live runtimes run either on the wall clock (production,
// the -live campaigns) or on a Fake (deterministic CI campaigns,
// faster-than-real soaks) with no change to protocol or transport code.
package clock

import "time"

// Clock is the time source a runtime schedules against. Real() wraps
// package time; NewFake() returns a virtual clock that only moves when
// told to.
type Clock interface {
	// Now returns the current instant.
	Now() time.Time
	// Since returns the elapsed time from t to Now.
	Since(t time.Time) time.Duration
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that receives the fire instant once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules fn after d on a clock-owned goroutine (the
	// advancing goroutine, for a Fake) and returns a cancellation handle.
	AfterFunc(d time.Duration, fn func()) Timer
	// NewTimer returns a channel-based timer firing after d.
	NewTimer(d time.Duration) Timer
}

// Timer is a cancellable pending timer, the subset of *time.Timer the
// runtimes need.
type Timer interface {
	// C returns the delivery channel (nil for AfterFunc timers).
	C() <-chan time.Time
	// Stop cancels the timer; it reports whether the timer was still
	// pending. As with time.Timer, Stop does not wait for an AfterFunc
	// body that already started.
	Stop() bool
}

// Gate is the quiescence hook a deterministic clock exposes: work units
// created outside timer bodies (mailbox events in flight, receive-loop
// deliveries) register as busy so the clock never advances across them.
// The Real clock does not implement Gate; callers obtain it with a type
// assertion and skip the accounting on the wall-clock path.
type Gate interface {
	// AddBusy registers n outstanding work units.
	AddBusy(n int)
	// DoneBusy retires n work units.
	DoneBusy(n int)
}

// realClock delegates to package time.
type realClock struct{}

// Real returns the wall clock. It is stateless; every call returns an
// equivalent value.
func Real() Clock { return realClock{} }

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

func (realClock) AfterFunc(d time.Duration, fn func()) Timer {
	return realTimer{t: time.AfterFunc(d, fn)}
}

func (realClock) NewTimer(d time.Duration) Timer {
	return realTimer{t: time.NewTimer(d)}
}

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time { return rt.t.C }
func (rt realTimer) Stop() bool          { return rt.t.Stop() }
