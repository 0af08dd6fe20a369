package main

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"jamm/internal/bus"
	"jamm/internal/consumer"
	"jamm/internal/telemetry"
	"jamm/internal/ulm"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64
	workdir string // working directory for archives and span files
	dropAt  uint64 // self-test: the final consumer loses this measured record
}

// plant is one workload's system under test as its build function
// wired it. measure times build (set-up), then warms, loads, settles
// and checks the last plant built.
type plant interface {
	// warm publishes every sensor's SEQ 0 record, untimed, and returns
	// once every consumer has it.
	warm() error
	// load runs the measured phase's open-loop generators from t0 and
	// returns when the schedule is exhausted.
	load(t0 time.Time) genStats
	// settled reports whether every offered record is accounted for:
	// delivered to each consumer or shed at a named, counted site.
	settled() bool
	// check runs the correctness checks and fills the outcome's
	// failures, violations and metrics.
	check(o *outcome, ph phase)
	close()
}

type workload struct {
	name  string
	build func(in *inputs, cfg config, tk *traceKit) (plant, error)
	// gen makes the seeded inputs for a run of the given length.
	gen func(seed int64, seconds float64) *inputs
	// points names the traced run's span points, in path order.
	points []string
	// segments: pairs of span points (-1 = due time) whose p50s make
	// up e2e_p50_ms, each reported under a per-layer metric name.
	segments []segment
}

type segment struct {
	metric string
	a, b   int
}

// outcome is one measured run's result.
type outcome struct {
	attempted  uint64
	failed     uint64
	violations []string
	e2e        map[string]float64
	layer      map[string]float64
	notes      []string
	spans      *spans // traced run only
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

const (
	setupRounds  = 101
	drainTimeout = 15 * time.Second
)

// measure builds the workload setupRounds times (reporting the median
// set-up time and keeping the last plant), warms it, runs the measured
// phase, waits for the system to settle and checks it.
func measure(w *workload, in *inputs, cfg config, traced bool) (*outcome, error) {
	var tk *traceKit
	if traced {
		tk = newTraceKit(in, w.points...)
	}
	var p plant
	var setups []float64
	// Set-up starts from a collected heap, not from the garbage input
	// generation left behind.
	runtime.GC()
	for i := 0; i < setupRounds; i++ {
		if tk != nil {
			tk.archives = 0
		}
		start := time.Now()
		q, err := w.build(in, cfg, tk)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupRounds-1 {
			q.close()
		} else {
			p = q
		}
	}
	defer p.close()
	if err := p.warm(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.name, err)
	}
	if tk != nil {
		tk.reset()
	}
	runtime.GC()
	t0 := time.Now()
	m := startMeter(t0, in.windows())
	gen := p.load(t0)
	settled := waitFor(drainTimeout, p.settled)
	ph := m.finish()

	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
	o.attempted = uint64(in.total())
	if !settled {
		o.violate("records unaccounted for %s after the load ended", drainTimeout)
	}
	measured := float64(in.measured())
	o.e2e["setup_s"] = median(setups)
	// Per-window figures, then their median: CPU over the records due
	// in each window, and each window's peak live heap.
	due := make([]int, in.windows())
	for g := in.sensors(); g < in.total(); g++ {
		due[in.windowOf(g)]++
	}
	var cpu, heap []float64
	for w, c := range ph.cpuWin {
		if due[w] > 0 {
			cpu = append(cpu, float64(c)/1e3/float64(due[w]))
		}
		heap = append(heap, float64(ph.peakWin[w])/(1<<20))
	}
	o.e2e["cpu_us_per_rec"] = median(cpu)
	o.e2e["heap_peak_mb"] = median(heap)
	o.layer["gen.late_ms_max"] = ms(gen.lateMax)
	o.layer["gen.late_frac"] = float64(gen.late) / float64(max(gen.sends, 1))
	o.layer["runtime.gc_cycles"] = float64(ph.rt.gcCycles)
	if ph.rt.totalCPU > 0 {
		o.layer["runtime.gc_cpu_frac"] = ph.rt.gcCPU / ph.rt.totalCPU
	}
	o.layer["runtime.allocs_per_rec"] = float64(ph.rt.allocObjs) / measured
	o.layer["runtime.bytes_per_rec"] = float64(ph.rt.allocBytes) / measured
	p.check(o, ph)
	if tk != nil {
		o.spans = tk.sp
		o.layer["path.e2e_p50_ms"] = o.e2e["e2e_p50_ms"]
		tk.report(w, o, ph)
	}
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// traceKit is the traced run's outside-in instrumentation: span points
// stamped from bus taps, target wrappers and the benchmark's own
// consumers; timers around the public calls each layer exposes; and
// the program's own telemetry.Tracer at sample 1 as a baseline.
type traceKit struct {
	sp     *spans
	reg    *telemetry.Registry
	tracer *telemetry.Tracer

	bus      lockedHist
	busRecs  atomic.Uint64
	busCalls atomic.Uint64

	appendH    lockedHist
	appendBusy atomic.Int64 // ns inside TakeTopicBatch, summed over archives
	archives   int

	publish lockedHist // Publisher.Publish calls
	route   lockedHist // Router.PublishBatch calls
	target  lockedHist // inside the bridge target
	forward lockedHist // inside the replication Forwarder
}

var stageNames = []string{"ingest", "bus", "wire", "relay", "mirror", "forward"}

func newTraceKit(in *inputs, points ...string) *traceKit {
	tk := &traceKit{sp: newSpans(in, points...), reg: telemetry.NewRegistry()}
	tk.tracer = telemetry.NewTracer("eventbench", 1, nil)
	tk.tracer.RegisterStages(tk.reg, stageNames...)
	return tk
}

// reset clears what the set-up rounds and the warm-up fed, so layer
// numbers cover the measured phase only. The tracer's histograms
// cannot be reset; their warm-up share is a few hundred batches.
func (tk *traceKit) reset() {
	for _, h := range []*lockedHist{&tk.bus, &tk.appendH, &tk.publish, &tk.route, &tk.target, &tk.forward} {
		h.mu.Lock()
		h.h = hist{}
		h.mu.Unlock()
	}
	tk.busRecs.Store(0)
	tk.busCalls.Store(0)
	tk.appendBusy.Store(0)
}

// observeBus times every bus delivery pass (Bus.SetDeliverObserver),
// feeding the program's tracer exactly as the daemons wire it.
func (tk *traceKit) observeBus(b *bus.Bus) {
	b.SetDeliverObserver(func(n int, d time.Duration) {
		tk.bus.add(d)
		tk.busRecs.Add(uint64(n))
		tk.busCalls.Add(1)
		tk.tracer.Observe("bus", d)
	})
}

// archive subscribes a to b the way Archiver.SubscribeBus does — one
// batch subscription calling TakeTopicBatch — with a timer around it.
func (tk *traceKit) archive(b *bus.Bus, a *consumer.Archiver) *bus.Subscription {
	tk.archives++
	return b.SubscribeBatchTopics("", nil, func(topic string, recs []ulm.Record) {
		t := time.Now()
		a.TakeTopicBatch(topic, recs)
		d := time.Since(t)
		tk.appendH.add(d)
		tk.appendBusy.Add(int64(d))
	})
}

// tap stamps span point p for every sampled record published on b.
func (tk *traceKit) tap(b *bus.Bus, p int, t0 *atomic.Int64) *bus.Subscription {
	return b.TapBatch("", func(topic string, recs []ulm.Record) {
		if base := t0.Load(); base != 0 {
			tk.sp.setRecs(p, topic, recs, time.Duration(nanotime()-base))
		}
	})
}

// report adds the traced run's per-layer metrics and path table.
func (tk *traceKit) report(w *workload, o *outcome, ph phase) {
	bus := tk.bus.snapshot()
	o.layer["bus.deliver_us_p50"] = bus.quantile(0.5) / 1e3
	o.layer["bus.deliver_us_p99"] = bus.quantile(0.99) / 1e3
	if c := tk.busCalls.Load(); c > 0 {
		o.layer["bus.recs_per_deliver"] = float64(tk.busRecs.Load()) / float64(c)
	}
	app := tk.appendH.snapshot()
	o.layer["histstore.append_us_p50"] = app.quantile(0.5) / 1e3
	if tk.archives > 0 {
		o.layer["histstore.busy_frac"] = float64(tk.appendBusy.Load()) / float64(ph.wall) / float64(tk.archives)
	}
	pub := tk.publish.snapshot()
	o.layer["publisher.call_us_p50"] = pub.quantile(0.5) / 1e3
	o.layer["publisher.call_us_p99"] = pub.quantile(0.99) / 1e3
	o.layer["router.publish_us_p50"] = tk.route.snapshot().quantile(0.5) / 1e3
	o.layer["bridge.target_us_p50"] = tk.target.snapshot().quantile(0.5) / 1e3
	o.layer["replicator.forward_us_p50"] = tk.forward.snapshot().quantile(0.5) / 1e3

	e2e := o.layer["path.e2e_p50_ms"]
	sum := 0.0
	o.notes = append(o.notes, fmt.Sprintf("path (traced, 1 in %d records sampled):", sampleEvery))
	for _, sg := range w.segments {
		h := tk.sp.segment(sg.a, sg.b)
		v := h.quantile(0.5) / 1e6
		o.layer[sg.metric] = v
		sum += v
		from := "due"
		if sg.a >= 0 {
			from = w.points[sg.a]
		}
		o.notes = append(o.notes, fmt.Sprintf("  %-28s %-14s -> %-14s p50 %8.3f ms  (n=%d)", sg.metric, from, w.points[sg.b], v, h.n))
	}
	o.layer["path.remainder_ms"] = e2e - sum
	o.notes = append(o.notes, fmt.Sprintf("  %-28s %8.3f ms of e2e p50 %.3f ms", "unattributed remainder", e2e-sum, e2e))
	o.notes = append(o.notes, "program tracer stage histograms (sample 1):")
	for _, st := range tk.stages() {
		o.layer["tracer."+st.name+"_us_mean"] = st.meanUS
		o.notes = append(o.notes, fmt.Sprintf("  %-8s n=%-9d mean %9.2f us", st.name, st.count, st.meanUS))
	}
}

type stageStat struct {
	name   string
	count  uint64
	meanUS float64
}

var stageLine = regexp.MustCompile(`^jamm_trace_stage_latency_ns_(sum|count)\{stage="([a-z]+)"\} ([0-9.eE+]+)$`)

// stages reads the tracer's stage histograms back through the
// registry's Prometheus exposition — the same view an operator scrapes.
func (tk *traceKit) stages() []stageStat {
	var buf bytes.Buffer
	if err := tk.reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	sums := map[string]float64{}
	counts := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		m := stageLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			continue
		}
		if m[1] == "sum" {
			sums[m[2]] = v
		} else {
			counts[m[2]] = v
		}
	}
	out := make([]stageStat, 0, len(stageNames))
	for _, n := range stageNames {
		st := stageStat{name: n, count: uint64(counts[n])}
		if counts[n] > 0 {
			st.meanUS = sums[n] / counts[n] / 1e3
		}
		out = append(out, st)
	}
	return out
}

// clock0 is the process-wide monotonic origin nanotime counts from.
var clock0 = time.Now()

// nanotime is a monotonic clock reading usable from atomics.
func nanotime() int64 { return int64(time.Since(clock0)) + 1 }
