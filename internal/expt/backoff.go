package expt

import (
	"time"

	"repro/internal/fault"
)

// Backoff is the unified retry-spacing policy shared by the local pool's
// job retries and internal/dist's degraded-mode paths (worker hello,
// lease polling after transport failures, result delivery). Delays grow
// geometrically from Base by Factor, capped at Max, with deterministic
// seed-keyed jitter so a fleet of retriers spreads out without losing
// run-to-run reproducibility: the same (Seed, attempt) always yields the
// same delay.
type Backoff struct {
	// Base is the first retry's delay; zero disables backoff entirely
	// (every Delay is 0).
	Base time.Duration
	// Factor multiplies the delay per attempt (<=1 means constant Base).
	Factor float64
	// Max caps the un-jittered delay (0 = uncapped).
	Max time.Duration
	// Jitter adds up to this fraction of the computed delay, keyed by
	// (Seed, attempt) through fault.Mix, the fault injectors' hash. 0 =
	// no jitter; values are clamped to [0, 1].
	Jitter float64
	// Seed keys the jitter stream.
	Seed int64
}

// Delay returns how long to wait before the given retry attempt
// (attempt 1 = the first retry). Attempts below 1 and a zero Base yield 0.
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 1 || b.Base <= 0 {
		return 0
	}
	d := float64(b.Base)
	if b.Factor > 1 {
		for i := 1; i < attempt; i++ {
			d *= b.Factor
			if b.Max > 0 && d >= float64(b.Max) {
				break
			}
		}
	}
	if b.Max > 0 && d > float64(b.Max) {
		d = float64(b.Max)
	}
	if j := b.Jitter; j > 0 {
		if j > 1 {
			j = 1
		}
		u := float64(fault.Mix(uint64(b.Seed), uint64(attempt))>>11) / float64(1<<53)
		d += d * j * u
	}
	return time.Duration(d)
}

// Sleep waits Delay(attempt), returning early (false) if stop closes.
// A nil stop channel never fires.
func (b Backoff) Sleep(attempt int, stop <-chan struct{}) bool {
	d := b.Delay(attempt)
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
