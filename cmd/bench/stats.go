package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// firstError keeps the first non-nil error set from any goroutine.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *firstError) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per1000 scales the time n items took to 1000 items. The corpus a seed
// grows is 1930-2120 pages: an operation over all of it is timed per 1000,
// so that the seed does not show in op_p50_ms.
func per1000(d time.Duration, n int) time.Duration {
	if n == 0 {
		return 0
	}
	return time.Duration(float64(d) * 1000 / float64(n))
}

// median returns the middle value (mean of the two middle ones for an
// even count); 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the q-quantile of durations by nearest rank; it sorts
// d in place.
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(q * float64(len(d)))
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

// timeIt returns how long f ran.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is the user+system CPU time of another process, read from
// /proc/<pid>/stat at the kernel's 100 ticks per second; 0 where /proc
// does not exist.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name is parenthesised and may hold spaces: fields count
	// from the last ')'. utime and stime are fields 14 and 15 overall.
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0
	}
	return time.Duration(utime+stime) * (time.Second / 100)
}

// procPeakRSSMB is the process's resident-set high-water mark (VmHWM) in
// MiB; 0 where /proc does not exist.
func procPeakRSSMB(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, ent := range ents {
		info, err := ent.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
