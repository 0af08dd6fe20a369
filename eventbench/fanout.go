package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/aggregate"
	"jamm/internal/bus"
	"jamm/internal/gateway"
	"jamm/internal/ulm"
)

// fanout_filtered: the paper's gateway role. One gateway fed by one v2
// publisher serves 32 in-process filtered subscriptions, 16 summary
// series, the aggregation plane (gatewayd -aggregate) and one wildcard
// wire consumer that asks for XML, as jammctl subscribe -format xml does
// (single-record frames). The rate is 2.5k recs/s: XML rides the
// JSON-per-line path at about 100 us of CPU per record; at 10k a
// 2-core host saturates (the generator ran late for 30% of sends and
// the stream shed records), and at 5k host stalls still overflowed the
// stream's 256-record buffer in some runs.
var fanoutWorkload = &workload{
	name: "fanout_filtered",
	gen: func(seed int64, seconds float64) *inputs {
		const rate = 2500
		return uniformInputs(seed, 64, int(seconds*rate), 1, time.Second/rate)
	},
	build:  buildFanout,
	points: []string{"gw.tap", "xml.consumer"},
	segments: []segment{
		{"ingest.arrive_ms_p50", -1, 0},
		{"wire_consumer.lag_ms_p50", 0, 1},
	},
}

const (
	changeSubs    = 12 // DeliverOnChange on sensors 0..11
	thresholdSubs = 12 // DeliverThreshold Above on sensors 12..23
	summaries     = 16 // summary series on sensors 24..39
	thresholdAt   = 50.0
)

// deltaFracs are the wildcard DeliverThreshold subscriptions' DeltaFrac.
var deltaFracs = []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.02, 0.1}

type filterSub struct {
	req gateway.Request
	sub *gateway.Subscription
	got atomic.Uint64
	// last is the highest SEQ delivered per sensor; the bus serializes
	// a subscription's deliveries, so only the callback touches it.
	last      []int64
	disorders atomic.Uint64
}

// take counts a delivered batch and checks per-sensor SEQ order; the
// record's HOST names its sensor.
func (f *filterSub) take(in *inputs, recs []ulm.Record) {
	f.got.Add(uint64(len(recs)))
	for i := range recs {
		s, ok := in.byHost[recs[i].Host]
		seq, ok2 := seqOf(&recs[i])
		if !ok || !ok2 || int64(seq) <= f.last[s] {
			f.disorders.Add(1)
			continue
		}
		f.last[s] = int64(seq)
	}
}

type fanoutPlant struct {
	in   *inputs
	tk   *traceKit
	t0ns atomic.Int64

	gw      *gateway.Gateway
	srv     *gateway.TCPServer
	agg     *aggregate.Aggregator
	aggOnce sync.Once
	stream  *gateway.Stream
	pub     *gateway.Publisher
	filters []*filterSub
	subs    []*bus.Subscription

	xml      *tracker
	ingested atomic.Uint64 // sensor records through the gateway's bus
	aggRecs  atomic.Uint64
	valWrong atomic.Uint64
	pubErrs  atomic.Uint64
}

func buildFanout(in *inputs, cfg config, tk *traceKit) (plant, error) {
	p := &fanoutPlant{in: in, tk: tk}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	p.gw = gateway.New("gw", nil)
	for s := changeSubs + thresholdSubs; s < changeSubs+thresholdSubs+summaries; s++ {
		p.gw.EnableSummary(in.names[s], eventName, "VAL")
	}
	p.agg = aggregate.New(p.gw, aggregate.Options{Emit: time.Second})
	for _, req := range filterRequests(in) {
		f := &filterSub{req: req, last: make([]int64, in.sensors())}
		for i := range f.last {
			f.last[i] = -1
		}
		sub, err := p.gw.SubscribeBatch(req, func(recs []ulm.Record) { f.take(in, recs) })
		if err != nil {
			return nil, err
		}
		f.sub = sub
		p.filters = append(p.filters, f)
	}
	// Registered after the aggregator's tap, so once it has counted a
	// batch the aggregator has folded it (taps run in subscription order).
	p.subs = append(p.subs, p.gw.Bus().TapBatch("", func(topic string, recs []ulm.Record) {
		if !strings.HasPrefix(topic, aggregate.TopicPrefix) {
			p.ingested.Add(uint64(len(recs)))
		}
	}))
	if tk != nil {
		p.gw.SetTracer(tk.tracer)
		tk.observeBus(p.gw.Bus())
		p.subs = append(p.subs, tk.tap(p.gw.Bus(), 0, &p.t0ns))
	}
	var err error
	if p.srv, err = gateway.ServeTCP(p.gw, "127.0.0.1:0", nil); err != nil {
		return nil, err
	}

	p.xml = newTracker(in)
	p.xml.dropAt = cfg.dropAt
	if tk != nil {
		p.xml.mark = func(g int, at time.Duration) { tk.sp.set(1, g, at) }
	}
	dash := gateway.NewClient("dashboard", p.srv.Addr())
	p.stream, err = dash.SubscribeBatchStream(gateway.Request{}, gateway.StreamOptions{Format: gateway.FormatXML},
		func(sensor string, recs []ulm.Record) {
			if strings.HasPrefix(sensor, aggregate.TopicPrefix) {
				p.aggRecs.Add(uint64(len(recs)))
				return
			}
			s := topicIndex(in, sensor)
			p.checkValues(s, recs)
			p.xml.take(s, recs)
		})
	if err != nil {
		return nil, err
	}
	if p.pub, err = gateway.NewClient("jammd/bench", p.srv.Addr()).NewBatchPublisher(gateway.FormatULM, 64, 5*time.Millisecond); err != nil {
		return nil, err
	}
	ok = true
	return p, nil
}

// filterRequests are the in-process consumers' requests: on-change and
// threshold-above on single sensors, and wildcard relative-change.
func filterRequests(in *inputs) []gateway.Request {
	var reqs []gateway.Request
	for s := 0; s < changeSubs; s++ {
		reqs = append(reqs, gateway.Request{Principal: "console", Sensor: in.names[s], Mode: gateway.DeliverOnChange})
	}
	for s := changeSubs; s < changeSubs+thresholdSubs; s++ {
		reqs = append(reqs, gateway.Request{Principal: "console", Sensor: in.names[s], Mode: gateway.DeliverThreshold, Above: gateway.Float64(thresholdAt)})
	}
	for _, d := range deltaFracs {
		reqs = append(reqs, gateway.Request{Principal: "console", Mode: gateway.DeliverThreshold, DeltaFrac: d})
	}
	return reqs
}

// checkValues parses each XML-delivered record's VAL back and compares
// it with the generated value.
func (p *fanoutPlant) checkValues(s int, recs []ulm.Record) {
	for i := range recs {
		seq, ok := seqOf(&recs[i])
		g := -1
		if ok {
			g = p.in.lookup(s, seq)
		}
		if g < 0 {
			continue // the tracker counts it as unknown
		}
		v, err := recs[i].Float("VAL")
		if err != nil || v != float64(p.in.val[g])/10 {
			p.valWrong.Add(1)
		}
	}
}

func (p *fanoutPlant) publish(g int, wall0 time.Time) {
	if err := p.pub.Publish(p.in.names[p.in.sensor[g]], p.in.record(g, wall0)); err != nil {
		p.pubErrs.Add(1)
	}
}

func (p *fanoutPlant) warm() error {
	p.xml.arm()
	now := time.Now()
	for s := 0; s < p.in.sensors(); s++ {
		p.publish(s, now)
	}
	if err := p.pub.Flush(); err != nil {
		return err
	}
	if !waitFor(10*time.Second, p.xml.warmedUp) {
		return fmt.Errorf("warm-up records never reached the XML consumer")
	}
	return nil
}

func (p *fanoutPlant) load(t0 time.Time) genStats {
	p.t0ns.Store(int64(t0.Sub(clock0)) + 1)
	p.xml.start(t0)
	s0 := p.in.sensors()
	gs := openLoop(t0, p.in.measured(), p.in.period, func(k int) {
		if p.tk == nil {
			p.publish(s0+k, t0)
			return
		}
		t := time.Now()
		p.publish(s0+k, t0)
		p.tk.publish.add(time.Since(t))
	})
	// A failed flush's records are counted in the publisher's Dropped.
	_ = p.pub.Flush()
	return gs
}

func (p *fanoutPlant) closeAggregator() { p.aggOnce.Do(func() { p.agg.Close() }) }

// settled waits until the gateway ingested every record, stops the
// aggregation plane — its emissions then have a final count — and
// waits until every sensor and aggregate record reached the XML
// consumer or was shed.
func (p *fanoutPlant) settled() bool {
	if p.ingested.Load()+p.pub.Dropped()+p.pubErrs.Load() < uint64(p.in.total()) {
		return false
	}
	p.closeAggregator()
	return p.xml.count()+p.aggRecs.Load()+p.sheds() >= p.xml.offered+3*p.agg.Emitted()
}

func (p *fanoutPlant) sheds() uint64 {
	return p.srv.WireStats().SubDrops + p.pub.Dropped() + p.pubErrs.Load()
}

func (p *fanoutPlant) check(o *outcome, ph phase) {
	total := uint64(p.in.total())
	x := p.xml
	ws := p.srv.WireStats()
	checkTracker(o, "XML consumer", x)
	want := x.offered + 3*p.agg.Emitted()
	if got := x.delivered + p.aggRecs.Load() + p.sheds(); got != want {
		o.violate("conservation at the XML consumer: delivered %d sensor + %d aggregate records + sheds %d != offered %d",
			x.delivered, p.aggRecs.Load(), p.sheds(), want)
	}
	if n := p.valWrong.Load(); n > 0 {
		o.violate("%d XML records did not parse back to their published VAL", n)
	}
	if n := p.stream.DecodeErrors(); n > 0 {
		o.violate("%d XML payloads failed to decode", n)
	}
	o.failed += x.missing()
	if folded := p.agg.Folded(); folded != total {
		o.violate("aggregate folded %d records, published %d", folded, total)
	}

	// Filters: every delivery count must equal the reference computed
	// from the generated inputs. Without publisher loss the gateway saw
	// exactly the generated stream.
	ref := referenceDeliveries(p.in, p.filters)
	var mismatch, delivered, suppressed, disorders uint64
	for i, f := range p.filters {
		got := f.got.Load()
		disorders += f.disorders.Load()
		d, s := f.sub.Counts()
		delivered += d
		suppressed += s
		if got != ref[i] {
			mismatch += absDiff(got, ref[i])
			if p.pub.Dropped()+p.pubErrs.Load() == 0 {
				o.violate("filter %d (%s %s): %d deliveries, reference %d", i, f.req.Mode, f.req.Sensor, got, ref[i])
			}
		}
	}

	if disorders > 0 {
		o.violate("filtered subscriptions: %d records out of per-sensor SEQ order", disorders)
	}

	x.latency(o)
	o.layer["consumer.order_violations"] = float64(x.dups + x.reorders + disorders)
	o.layer["publisher.dropped"] = float64(p.pub.Dropped() + p.pubErrs.Load())
	o.layer["ingest.frames_per_rec"] = float64(p.gw.FrameStats().Decodes) / float64(total)
	o.layer["ingest.bad_records"] = float64(ws.BadRecords + ws.BadFrames)
	o.layer["stream.sub_drops"] = float64(ws.SubDrops)
	o.layer["wire_consumer.sub_drops"] = float64(ws.SubDrops)
	o.layer["filter.ref_mismatch"] = float64(mismatch)
	if delivered+suppressed > 0 {
		o.layer["filter.pass_ratio"] = float64(delivered) / float64(delivered+suppressed)
	}
	o.layer["aggregate.folded_per_rec"] = float64(p.agg.Folded()) / float64(total)
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

func (p *fanoutPlant) close() {
	if p.pub != nil {
		p.pub.Close()
	}
	if p.stream != nil {
		p.stream.Close()
	}
	if p.srv != nil {
		p.srv.Close()
	}
	for _, f := range p.filters {
		f.sub.Cancel()
	}
	for _, s := range p.subs {
		s.Cancel()
	}
	if p.agg != nil {
		p.closeAggregator()
	}
}

// referenceDeliveries replays the generated stream, in publish order,
// through an independent model of each subscription's delivery policy
// and returns how many records each should have delivered.
func referenceDeliveries(in *inputs, filters []*filterSub) []uint64 {
	out := make([]uint64, len(filters))
	for i, f := range filters {
		m := refFilter{req: f.req}
		s := -1
		if f.req.Sensor != "" {
			s = in.topics[f.req.Sensor]
		}
		for g := 0; g < in.total(); g++ {
			if s >= 0 && int(in.sensor[g]) != s {
				continue
			}
			if m.passes(formatTenths(in.val[g])) {
				out[i]++
			}
		}
	}
	return out
}

// refFilter models the documented change/threshold semantics of
// gateway.Request: on-change compares the raw field with the last
// delivered one; threshold fires on an Above crossing from the last
// observation (or a first observation already above), and on a change
// by more than DeltaFrac of the last delivered value (the first
// observation always delivers).
type refFilter struct {
	req      gateway.Request
	haveLast bool
	lastObs  float64
	lastRaw  string
	haveSent bool
	lastSent float64
}

func (f *refFilter) passes(raw string) bool {
	if f.req.Mode == gateway.DeliverOnChange {
		if f.haveLast && raw == f.lastRaw {
			return false
		}
		f.haveLast, f.lastRaw = true, raw
		return true
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return false
	}
	pass := false
	if a := f.req.Above; a != nil {
		pass = v > *a && (!f.haveLast || f.lastObs <= *a)
	}
	if f.req.DeltaFrac > 0 {
		switch {
		case !f.haveSent:
			pass = true
		case f.lastSent == 0:
			pass = pass || v != 0
		default:
			d := v - f.lastSent
			if d < 0 {
				d = -d
			}
			base := f.lastSent
			if base < 0 {
				base = -base
			}
			pass = pass || d/base > f.req.DeltaFrac
		}
	}
	f.haveLast, f.lastObs = true, v
	if pass {
		f.haveSent, f.lastSent = true, v
	}
	return pass
}
