package dist

import "time"

// Breaker state names, surfaced in the /fleet rows.
const (
	BreakerClosed   = "closed"
	BreakerOpen     = "open"
	BreakerHalfOpen = "half-open"
)

// breaker is the per-worker circuit breaker: a worker that keeps failing
// (failed results, reclaimed leases) is quarantined — its lease requests
// are answered with waits — for a cooldown, then allowed exactly one
// probe lease. A successful probe closes the breaker; a failed one
// re-opens it. This keeps a flapping worker (bad hardware, hostile
// network segment) from churning the retry budget of every job it
// touches, while still letting it rejoin once it heals.
//
// All methods are called with the coordinator's mutex held.
type breaker struct {
	state    string // "" means closed
	fails    int    // consecutive failures
	openedAt time.Time
	trips    uint64
	probing  bool // half-open with the probe lease outstanding
}

// String names the current state.
func (b *breaker) String() string {
	if b.state == "" {
		return BreakerClosed
	}
	return b.state
}

// allow reports whether a lease may be granted now. When quarantined it
// returns the remaining cooldown so the worker's poll can be paced.
func (b *breaker) allow(now time.Time, cooldown time.Duration) (ok bool, wait time.Duration) {
	switch b.state {
	case BreakerOpen:
		if left := cooldown - now.Sub(b.openedAt); left > 0 {
			return false, left
		}
		b.state = BreakerHalfOpen
		b.probing = false
		return true, 0
	case BreakerHalfOpen:
		if b.probing {
			return false, 0
		}
		return true, 0
	}
	return true, 0
}

// granted marks a lease handed to the worker (the probe, when half-open).
func (b *breaker) granted() {
	if b.state == BreakerHalfOpen {
		b.probing = true
	}
}

// success records a delivered result: the streak resets and a half-open
// breaker closes.
func (b *breaker) success() {
	b.fails = 0
	b.state = BreakerClosed
	b.probing = false
}

// failure records a failed result or reclaimed lease; the breaker trips
// when the streak reaches threshold (or immediately on a failed probe).
// Returns true when this failure tripped it.
func (b *breaker) failure(now time.Time, threshold int) bool {
	b.fails++
	if threshold <= 0 {
		return false // breaker disabled; streak still tracked for telemetry
	}
	if b.state == BreakerHalfOpen || b.fails >= threshold {
		if b.state != BreakerOpen {
			b.trips++
		}
		b.state = BreakerOpen
		b.openedAt = now
		b.probing = false
		return true
	}
	return false
}
