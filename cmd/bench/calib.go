package main

import (
	"bytes"
	"compress/flate"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// The shared host this benchmark runs on changes speed under it: for
// minutes at a time the same binary on the same seed runs every workload
// 25-30 % slower, in user CPU time, with no steal time reported (busy
// neighbours on the sibling hyperthreads and the shared cache, most
// likely). That is as wide as the widest bound a metric may have, so a
// raw time cannot gate anything here. Every run therefore measures the
// machine beside the program: between repetitions it times a fixed
// reference kernel of ordinary Go code (count words in a map, sort them,
// compress the text) on every CPU, and every end-to-end value is reported at the
// reference speed, refUnitsPerCPU, instead of at whatever speed the host
// happened to give the run. The kernel uses nothing of this repository, so
// no change to the program can move it.
//
// Latency-bound loops (a multiply chain, a pointer chase) were tried first
// and did not track the slow mode: they leave the core's shared execution
// resources idle. The kernel below does what the workloads do, and its
// 14-second medians follow theirs with a correlation of 0.8-0.9.

// refUnitsPerCPU is the kernel's rate, units per second per CPU, on the
// authoring box (2 vCPUs of a Xeon at 2.1 GHz) in its fast mode. It only
// fixes the scale: a metric reads what the run would have measured on a
// machine of this speed.
const refUnitsPerCPU = 175.0

// sensitivity is how much harder the host's slow mode hits the workloads
// than the kernel: where the kernel runs at a share r of its reference
// rate, a workload runs at about r^sensitivity of its own. Fitted over runs
// on either side of a mode change, the exponent is 0.8 for refresh, 1.0
// for simulate and 1.4-1.5 for ingest and the two search workloads, whose
// processes wait for each other across sockets, so that a stall of one
// CPU stalls both; 1.2 is the middle, and takes the widest spread among
// all sets of ten runs measured from 11.6 % to 9.2 %, and the sets a mode
// change fell into from 8-12 % to 4-7 %.
const sensitivity = 1.2

// relSpeed turns a kernel rate into the speed the workloads feel.
func relSpeed(units int, busy time.Duration) float64 {
	return math.Pow(float64(units)/busy.Seconds()/refUnitsPerCPU, sensitivity)
}

// calSlice is how long one speed sample runs.
const calSlice = 100 * time.Millisecond

// calText is 128 KiB of pseudo-random words, the kernel's fixed input,
// and calWords the words of it.
var calText, calWords = func() ([]byte, []string) {
	var b bytes.Buffer
	x := uint64(12345)
	step := func() uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return x
	}
	for b.Len() < 128<<10 {
		for n := 3 + int(step()>>60); n > 0; n-- {
			b.WriteByte(byte('a' + (step()>>59)%20))
		}
		b.WriteByte(' ')
	}
	return b.Bytes(), strings.Fields(b.String())
}()

// calState is what one CPU's kernel reuses from unit to unit, so that a
// unit allocates nothing and the garbage collector, whose cost depends on
// the heap the workload left, stays out of the measurement.
type calState struct {
	counts map[string]int
	words  []string
	fw     *flate.Writer
	out    bytes.Buffer
}

func newCalState() (*calState, error) {
	fw, err := flate.NewWriter(nil, flate.DefaultCompression)
	return &calState{counts: map[string]int{}, fw: fw}, err
}

// unit is one unit of the reference kernel: count the words in a map,
// sort the distinct ones, compress the text.
func (c *calState) unit() error {
	clear(c.counts)
	for _, w := range calWords {
		c.counts[w]++
	}
	c.words = c.words[:0]
	for w := range c.counts {
		c.words = append(c.words, w)
	}
	sort.Strings(c.words)
	c.out.Reset()
	c.fw.Reset(&c.out)
	if _, err := c.fw.Write(calText); err != nil {
		return err
	}
	return c.fw.Close()
}

// speedometer samples the machine's speed through a run.
type speedometer struct {
	states []*calState   // one per CPU, kept warm from sample to sample
	units  int           // kernel units completed, on any CPU
	busy   time.Duration // CPU time they took: the slices' lengths, summed over CPUs
	slices []float64     // each slice's own speed, for the log
}

func newSpeedometer() (*speedometer, error) {
	m := &speedometer{}
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		c, err := newCalState()
		if err != nil {
			return nil, err
		}
		// One untimed unit grows the map, the slice and the buffer.
		if err := c.unit(); err != nil {
			return nil, err
		}
		m.states = append(m.states, c)
	}
	return m, nil
}

// sample runs the reference kernel on every CPU at once for calSlice. It
// collects garbage first, so that marking what the workload left behind
// does not count against the machine.
func (m *speedometer) sample() error {
	runtime.GC()
	var mu sync.Mutex
	units, busy := 0, time.Duration(0)
	var failed firstError
	var wg sync.WaitGroup
	for _, c := range m.states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, start := 0, time.Now()
			for time.Since(start) < calSlice {
				if err := c.unit(); err != nil {
					failed.set(err)
					return
				}
				n++
			}
			// Up to the end of the last unit, so no part of a unit is lost.
			d := time.Since(start)
			mu.Lock()
			units, busy = units+n, busy+d
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := failed.get(); err != nil {
		return err
	}
	m.units, m.busy = m.units+units, m.busy+busy
	m.slices = append(m.slices, relSpeed(units, busy))
	return nil
}

// speed is the run's speed relative to the reference, from the units a
// CPU completed per second of kernel time over all slices: 1 at
// refUnitsPerCPU. The host changes speed over minutes, so a run has one
// speed. (Of the statistics tried on the same runs, this one left the
// least spread in most sets of ten: less than the median over slices and
// than the median over the ~500 single units of a run, which does not see
// a slowdown of one CPU out of two.)
func (m *speedometer) speed() float64 { return relSpeed(m.units, m.busy) }
