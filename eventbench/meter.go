package main

import (
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// meter measures the process over the measured phase: user+sys CPU
// (getrusage), sampled at every reporting-window boundary; peak live
// heap per window, sampled through runtime/metrics, which never stops
// the world; and the Go runtime's GC and allocation counters.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	rt0  rtCounters
	stop chan struct{}
	done chan struct{}

	// Written by the sampler goroutine only, read after done closes.
	cpuAt []time.Duration // process CPU at each window boundary
	peaks []uint64        // peak live heap per window
}

type rtCounters struct {
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	allocObjs  uint64
	allocBytes uint64
}

// phase is what a meter reports at the end.
type phase struct {
	wall    time.Duration
	cpu     time.Duration   // whole phase, until settled
	cpuWin  []time.Duration // per reporting window
	peakWin []uint64        // peak live heap per reporting window
	rt      rtCounters      // deltas over the whole phase
}

var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

func readRT() rtCounters {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return rtCounters{gcCycles: u(0), gcCPU: f(1), totalCPU: f(2), allocObjs: u(3), allocBytes: u(4)}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// samplePeriod is how often the sampler reads the live heap and checks
// for a window boundary: well under the GC period at these rates, so
// every cycle's live heap is seen.
const samplePeriod = 10 * time.Millisecond

func startMeter(t0 time.Time, windows int) *meter {
	m := &meter{
		t0: t0, cpu0: processCPU(), rt0: readRT(),
		stop: make(chan struct{}), done: make(chan struct{}),
		cpuAt: make([]time.Duration, 1, windows+1), peaks: make([]uint64, windows),
	}
	m.cpuAt[0] = m.cpu0
	go func() {
		defer close(m.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tk := time.NewTicker(samplePeriod)
		defer tk.Stop()
		for {
			w := int(time.Since(t0) / window)
			m.boundaries(w)
			metrics.Read(s)
			if i := min(w, windows-1); s[0].Value.Uint64() > m.peaks[i] {
				m.peaks[i] = s[0].Value.Uint64()
			}
			select {
			case <-m.stop:
				m.boundaries(windows)
				return
			case <-tk.C:
			}
		}
	}()
	return m
}

// boundaries records the CPU reading for every window boundary up to w
// not yet recorded.
func (m *meter) boundaries(w int) {
	for len(m.cpuAt) <= min(w, cap(m.cpuAt)-1) {
		m.cpuAt = append(m.cpuAt, processCPU())
	}
}

func (m *meter) finish() phase {
	close(m.stop)
	<-m.done
	rt := readRT()
	ph := phase{
		wall:    time.Since(m.t0),
		cpu:     processCPU() - m.cpu0,
		peakWin: m.peaks,
		rt: rtCounters{
			gcCycles:   rt.gcCycles - m.rt0.gcCycles,
			gcCPU:      rt.gcCPU - m.rt0.gcCPU,
			totalCPU:   rt.totalCPU - m.rt0.totalCPU,
			allocObjs:  rt.allocObjs - m.rt0.allocObjs,
			allocBytes: rt.allocBytes - m.rt0.allocBytes,
		},
	}
	for i := 1; i < len(m.cpuAt); i++ {
		ph.cpuWin = append(ph.cpuWin, m.cpuAt[i]-m.cpuAt[i-1])
	}
	return ph
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
