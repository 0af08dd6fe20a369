package main

import (
	"math/bits"
	"sort"
	"sync"
	"time"
)

// hist is a fixed-size log-linear histogram of non-negative nanosecond
// samples: exact below 64 ns, then 64 sub-buckets per power of two, so
// any quantile read back is within 1/64 of the true value. It never
// allocates after construction, so recording a sample cannot feed the
// garbage collector whose pauses the benchmark is measuring.
type hist struct {
	counts [59 * subCount]uint64
	n      uint64
}

const (
	subBits  = 6
	subCount = 1 << subBits
)

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - subBits - 1
	return (e+1)*subCount + int(v>>uint(e)) - subCount
}

// bucketRange returns the lowest value a bucket holds and its width.
func bucketRange(i int) (lo, width float64) {
	if i < subCount {
		return float64(i), 1
	}
	e := i/subCount - 1
	m := uint64(i%subCount + subCount)
	return float64(m << uint(e)), float64(uint64(1) << uint(e))
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketOf(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in nanoseconds, interpolated by rank
// inside its bucket; 0 when the histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum+0.5)/float64(c)
		}
		cum += float64(c)
	}
	lo, w := bucketRange(len(h.counts) - 1)
	return lo + w
}

// lockedHist is a hist fed from several goroutines (bus observers,
// forwarders running on connection goroutines).
type lockedHist struct {
	mu sync.Mutex
	h  hist
}

func (l *lockedHist) add(d time.Duration) {
	l.mu.Lock()
	l.h.add(int64(d))
	l.mu.Unlock()
}

func (l *lockedHist) snapshot() *hist {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.h
	return &c
}

// samples keeps every value of a short series (read latencies, a few
// thousand per run at most) for exact quantiles.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)) }

// quantile interpolates linearly between order statistics; 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	v := append([]float64(nil), s...)
	sort.Float64s(v)
	r := q * float64(len(v)-1)
	i := int(r)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (r-float64(i))*(v[i+1]-v[i])
}
