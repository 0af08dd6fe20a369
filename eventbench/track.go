package main

import (
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/ulm"
)

// tracker is one consumer's ledger: it checks that every record arrives
// at most once and in per-sensor SEQ order, counts deliveries, and
// times each measured record from when it was due. Callbacks from any
// goroutine may feed it.
type tracker struct {
	in      *inputs
	offered uint64 // records this consumer should get

	mu        sync.Mutex
	t0        time.Time // start of the measured phase (zero during warm-up)
	last      []int64   // per sensor: highest SEQ seen, -1 before any
	seen      []uint64  // bitset over g
	delivered uint64
	dups      uint64
	reorders  uint64
	unknown   uint64
	injected  uint64
	lat       []hist // per reporting window, by due time

	// dropAt, when > 0, makes the tracker discard the dropAt-th
	// measured record it receives — the self-test's injected loss.
	dropAt uint64
	taken  uint64

	// mark, when set, is called for every accepted record with its
	// arrival offset (the traced run's span hook).
	mark func(g int, at time.Duration)
}

func newTracker(in *inputs) *tracker {
	t := &tracker{in: in, offered: uint64(in.total()), last: make([]int64, in.sensors()), seen: make([]uint64, (in.total()+63)/64)}
	for i := range t.last {
		t.last[i] = -1
	}
	return t
}

// arm allocates the per-window latency histograms (about 30 KiB a
// window). Plants call it from warm, so the ledger's memory is neither
// part of the timed set-up nor allocated inside the measured phase.
func (t *tracker) arm() {
	t.mu.Lock()
	t.lat = make([]hist, t.in.windows())
	t.mu.Unlock()
}

func (t *tracker) start(t0 time.Time) {
	t.mu.Lock()
	t.t0 = t0
	t.mu.Unlock()
}

// take accounts a delivered batch of sensor s (s < 0: unknown topic).
func (t *tracker) take(s int, recs []ulm.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var now time.Duration
	if !t.t0.IsZero() {
		now = time.Since(t.t0)
	}
	for i := range recs {
		seq, ok := seqOf(&recs[i])
		g := -1
		if ok {
			g = t.in.lookup(s, seq)
		}
		if g < 0 {
			t.unknown++
			continue
		}
		t.accept(s, g, int64(seq), now)
	}
}

func (t *tracker) accept(s, g int, seq int64, now time.Duration) {
	warm := g < t.in.sensors()
	if !warm {
		t.taken++
		if t.taken == t.dropAt {
			t.injected++
			return
		}
	}
	bit := uint64(1) << (uint(g) & 63)
	if t.seen[g>>6]&bit != 0 {
		t.dups++
		return
	}
	t.seen[g>>6] |= bit
	if seq <= t.last[s] {
		t.reorders++
	} else {
		t.last[s] = seq
	}
	t.delivered++
	if !warm {
		t.lat[t.in.windowOf(g)].add(int64(now - t.in.dueOf(g)))
		if t.mark != nil {
			t.mark(g, now)
		}
	}
}

// latency reports e2e_p50_ms, the median over reporting windows of
// each window's median latency, and the whole phase's p99.
func (t *tracker) latency(o *outcome) {
	var all hist
	p50s := make([]float64, 0, len(t.lat))
	for i := range t.lat {
		if t.lat[i].n > 0 {
			p50s = append(p50s, t.lat[i].quantile(0.5)/1e6)
		}
		all.merge(&t.lat[i])
	}
	o.e2e["e2e_p50_ms"] = median(p50s)
	o.layer["consumer.lag_ms_p99"] = all.quantile(0.99) / 1e6
}

// count returns the records that reached the consumer so far,
// including one the self-test made it discard: settling waits for the
// system, while the conservation check counts only what was kept.
func (t *tracker) count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.delivered + t.injected
}

// warmedUp reports whether every sensor's warm-up record has arrived.
func (t *tracker) warmedUp() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for s := 0; s < t.in.sensors(); s++ {
		if t.seen[s>>6]&(1<<(uint(s)&63)) == 0 {
			return false
		}
	}
	return true
}

// has reports whether record g arrived (call after the run settles).
func (t *tracker) has(g int) bool { return t.seen[g>>6]&(1<<(uint(g)&63)) != 0 }

// missing counts offered records that never arrived.
func (t *tracker) missing() uint64 { return t.offered - t.delivered }

// spans holds the traced run's per-record span points for a sample of
// records: point p of sampled record g is the offset from the start of
// the measured phase at which g crossed that boundary. Spans of one
// record share its g, i.e. its (sensor, SEQ) identity. Storage is fixed
// at build time so tracing adds no per-record heap objects.
type spans struct {
	in    *inputs
	every int
	names []string
	pts   [][]int64 // [point][slot], offset+1 (0 = not seen)
}

// sampleEvery keeps one measured record in this many.
const sampleEvery = 8

func newSpans(in *inputs, names ...string) *spans {
	sp := &spans{in: in, every: sampleEvery, names: names, pts: make([][]int64, len(names))}
	slots := in.measured()/sampleEvery + 1
	for i := range sp.pts {
		sp.pts[i] = make([]int64, slots)
	}
	return sp
}

func (sp *spans) slot(g int) int {
	j := g - sp.in.sensors()
	if j < 0 || j%sp.every != 0 {
		return -1
	}
	return j / sp.every
}

// set records point p for record g if g is sampled.
func (sp *spans) set(p, g int, at time.Duration) {
	if k := sp.slot(g); k >= 0 {
		atomic.StoreInt64(&sp.pts[p][k], int64(at)+1)
	}
}

// setRecs records point p for every sampled record of a delivered
// batch of sensor topic.
func (sp *spans) setRecs(p int, topic string, recs []ulm.Record, at time.Duration) {
	s, ok := sp.in.topics[topic]
	if !ok {
		return
	}
	for i := range recs {
		if seq, ok := seqOf(&recs[i]); ok {
			if g := sp.in.lookup(s, seq); g >= 0 {
				sp.set(p, g, at)
			}
		}
	}
}

// segment is the distribution of point b minus point a over sampled
// records that crossed both; a == -1 means the record's due time.
func (sp *spans) segment(a, b int) *hist {
	var h hist
	for k := range sp.pts[b] {
		tb := atomic.LoadInt64(&sp.pts[b][k])
		if tb == 0 {
			continue
		}
		g := sp.in.sensors() + k*sp.every
		var ta int64
		if a < 0 {
			ta = int64(sp.in.dueOf(g)) + 1
		} else if ta = atomic.LoadInt64(&sp.pts[a][k]); ta == 0 {
			continue
		}
		h.add(tb - ta)
	}
	return &h
}
