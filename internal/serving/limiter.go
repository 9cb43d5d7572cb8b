package serving

import (
	"context"
	"sync/atomic"
	"time"
)

// limiter is the admission controller in front of the search path: a
// counting semaphore bounding the number of in-flight searches, with a
// bounded wait for a slot. Under overload the goroutine-per-connection
// model otherwise admits every request, and queueing moves into the
// scheduler where latency grows without bound for everyone; shedding the
// excess with 503 + Retry-After keeps latency bounded for the requests
// that are admitted and tells well-behaved clients when to come back.
type limiter struct {
	sem     chan struct{}
	maxWait time.Duration

	admitted atomic.Uint64
	shed     atomic.Uint64
}

// newLimiter builds a limiter admitting at most maxInflight (>= 1, checked
// by New) concurrent requests, each waiting at most maxWait for a slot
// before being shed (maxWait 0 sheds immediately on saturation).
func newLimiter(maxInflight int, maxWait time.Duration) *limiter {
	return &limiter{sem: make(chan struct{}, maxInflight), maxWait: maxWait}
}

// acquire takes one in-flight slot, reporting false — after counting the
// shed — when none frees up within maxWait or the caller's context ends
// first. Every true return must be paired with exactly one release.
func (l *limiter) acquire(ctx context.Context) bool {
	select {
	case l.sem <- struct{}{}:
		l.admitted.Add(1)
		return true
	default:
	}
	if l.maxWait > 0 {
		t := time.NewTimer(l.maxWait) //pqlint:allow walltime the bounded admission wait is a real time boundary; cancellable via ctx
		defer t.Stop()
		select {
		case l.sem <- struct{}{}:
			l.admitted.Add(1)
			return true
		case <-t.C:
		case <-ctx.Done():
		}
	}
	l.shed.Add(1)
	return false
}

// release returns one in-flight slot.
func (l *limiter) release() { <-l.sem }

// inflight returns the number of currently admitted requests.
func (l *limiter) inflight() int { return len(l.sem) }

// limit returns the admission capacity.
func (l *limiter) limit() int { return cap(l.sem) }

// counters returns the lifetime admitted and shed request counts.
func (l *limiter) counters() (admitted, shed uint64) {
	return l.admitted.Load(), l.shed.Load()
}
