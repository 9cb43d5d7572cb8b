package par

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// goroutineID returns the "goroutine N" header of the caller's stack.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.Index(buf, []byte(" [")); i >= 0 {
		buf = buf[:i]
	}
	return string(buf)
}

// TestDo is the one place the fan-out's contract is checked (run it under
// -race): every index exactly once, slot-written results independent of
// the worker count, lowest-index error under any schedule, cancellation,
// and no goroutine at one worker.
func TestDo(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		var want []uint64
		for _, workers := range []int{-1, 0, 1, 2, runtime.GOMAXPROCS(0), n + 5} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				visits := make([]atomic.Int32, n)
				slots := make([]uint64, n)
				err := DoErr(n, workers, func(i int) error {
					visits[i].Add(1)
					slots[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i := range visits {
					if v := visits[i].Load(); v != 1 {
						t.Fatalf("index %d visited %d times", i, v)
					}
				}
				if want == nil {
					want = slots
				}
				for i := range slots {
					if slots[i] != want[i] {
						t.Fatalf("slot %d = %#x, want %#x", i, slots[i], want[i])
					}
				}
			})
		}
	}

	t.Run("lowest-index error wins", func(t *testing.T) {
		err3, err9 := errors.New("index 3"), errors.New("index 9")
		for _, workers := range []int{1, 2, 4, 16} {
			for rep := 0; rep < 50; rep++ {
				err := DoErr(12, workers, func(i int) error {
					switch i {
					case 3:
						// Give index 9 every chance to fail first.
						for y := 0; y < rep; y++ {
							runtime.Gosched()
						}
						return err3
					case 9:
						return err9
					}
					return nil
				})
				if err != err3 {
					t.Fatalf("workers=%d rep=%d: got %v, want index 3's error", workers, rep, err)
				}
			}
		}
	})

	t.Run("cancelled context", func(t *testing.T) {
		for _, workers := range []int{1, 4} {
			ctx, cancel := context.WithCancel(context.Background())
			var calls atomic.Int32
			err := DoContext(ctx, 1000, workers, func(i int) error {
				if calls.Add(1) == 5 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
			}
			// Each worker may finish the index it already holds, no more.
			if c := int(calls.Load()); c >= 5+workers {
				t.Fatalf("workers=%d: %d calls after cancellation at the 5th", workers, c)
			}
			cancel()
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := DoContext(ctx, 3, 2, func(int) error { t.Error("fn ran on a dead context"); return nil }); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("one worker runs inline", func(t *testing.T) {
		caller := goroutineID()
		for _, tc := range []struct{ n, workers int }{{5, 1}, {1, 8}} {
			Do(tc.n, tc.workers, func(int) {
				if id := goroutineID(); id != caller {
					t.Errorf("n=%d workers=%d: fn ran on %s, caller is %s", tc.n, tc.workers, id, caller)
				}
			})
		}
	})
}
