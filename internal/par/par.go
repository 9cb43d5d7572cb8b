// Package par is the one ordered fan-out every parallel loop in this
// module rides: fn(i) for each i in [0,n), indices handed out in
// ascending order from a shared atomic cursor.
//
// The determinism argument the callers rely on is made here, once. The
// primitive decides only which goroutine runs which index and when — so
// any fn whose call for index i writes nothing but slot i of its outputs
// (and reads nothing another index writes) produces the same slots at
// every worker count and under every schedule. Callers keep the parts
// that fix the arithmetic: chunk boundaries that depend on the input size
// alone, and a fold over the slots in index order after Do returns.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Do calls fn(i) once for every i in [0,n) and waits for all calls to
// return. workers < 1 means GOMAXPROCS; the count is clamped to n, and at
// one worker the loop runs inline on the caller's goroutine.
func Do(n, workers int, fn func(i int)) {
	_ = DoErr(n, workers, func(i int) error { fn(i); return nil }) //pqlint:allow droppederr the wrapped fn returns nil and the background context never ends
}

// DoErr is Do for calls that can fail. After the first failure no further
// index is handed out, and the error of the lowest failing index is
// returned: the cursor is monotonic, so every index below a failing one
// was already claimed and runs to completion, which makes the reported
// error independent of the schedule.
func DoErr(n, workers int, fn func(i int) error) error {
	return DoContext(context.Background(), n, workers, fn)
}

// DoContext is DoErr with cancellation: ctx is checked before each index
// is handed out, and a ctx that ended before DoContext returns is reported
// as ctx.Err() unless some fn call failed first.
func DoContext(ctx context.Context, n, workers int, fn func(i int) error) error {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}

	var (
		cursor atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex // guards errIdx and first
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	return ctx.Err()
}
