package expt

import (
	"testing"
	"time"
)

// TestBackoffGrowthAndCap pins the geometric schedule: Base doubling per
// attempt under Factor 2, clamped at Max.
func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Factor: 2, Max: 500 * time.Millisecond}
	want := []time.Duration{
		0, // attempt 0: no wait before the first try
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		500 * time.Millisecond, // capped
		500 * time.Millisecond,
	}
	for attempt, w := range want {
		if got := b.Delay(attempt); got != w {
			t.Fatalf("Delay(%d) = %v, want %v", attempt, got, w)
		}
	}
	if got := b.Delay(-1); got != 0 {
		t.Fatalf("Delay(-1) = %v, want 0", got)
	}
}

// TestBackoffZeroBaseDisables pins that a zero Base turns backoff off
// entirely — the pool's default of retrying immediately.
func TestBackoffZeroBaseDisables(t *testing.T) {
	var b Backoff
	for attempt := 0; attempt < 5; attempt++ {
		if got := b.Delay(attempt); got != 0 {
			t.Fatalf("zero-value Backoff Delay(%d) = %v, want 0", attempt, got)
		}
	}
}

// TestBackoffJitterDeterministic pins the reproducibility contract: the
// same (Seed, attempt) always yields the same jittered delay, different
// seeds spread out, and jitter stays within [d, d*(1+J)].
func TestBackoffJitterDeterministic(t *testing.T) {
	b1 := Backoff{Base: 100 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: 1}
	b2 := Backoff{Base: 100 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: 1}
	b3 := Backoff{Base: 100 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: 99}
	diverged := false
	for attempt := 1; attempt <= 8; attempt++ {
		d1, d2, d3 := b1.Delay(attempt), b2.Delay(attempt), b3.Delay(attempt)
		if d1 != d2 {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", attempt, d1, d2)
		}
		if d1 != d3 {
			diverged = true
		}
		base := Backoff{Base: 100 * time.Millisecond, Factor: 2}.Delay(attempt)
		if d1 < base || d1 > base+base/2 {
			t.Fatalf("jittered Delay(%d) = %v outside [%v, %v]", attempt, d1, base, base+base/2)
		}
	}
	if !diverged {
		t.Fatal("seeds 1 and 99 produced identical jitter at every attempt")
	}
}

// TestBackoffSleepStops pins that Sleep returns early (false) when stop
// closes — a halted worker must not sit out a long delay.
func TestBackoffSleepStops(t *testing.T) {
	b := Backoff{Base: 10 * time.Second}
	stop := make(chan struct{})
	close(stop)
	start := time.Now()
	if b.Sleep(1, stop) {
		t.Fatal("Sleep completed despite closed stop channel")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Sleep did not return promptly on stop")
	}
	if !b.Sleep(0, nil) {
		t.Fatal("zero-delay Sleep must report completion")
	}
}
