package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"jamm/internal/bridge"
	"jamm/internal/bus"
	"jamm/internal/consumer"
	"jamm/internal/gateway"
	"jamm/internal/histstore"
	"jamm/internal/ulm"
)

// relay_interleaved: the north-star daemon path. A v2 batching
// Publisher (jammd -forward: 64 recs / 5 ms) feeds gwA, which archives
// everything (gatewayd -archive: consumer.Archiver -> histstore) and
// serves a wire subscribe stream to a bridge in pure-relay position
// (gatewayd -peer: 64 / 2 ms), which republishes into gwB, where the
// benchmark's consumer callback is the final stop. The rate is 5k
// recs/s: gwA's subscribe stream buffers 256 records (51 ms at 5k), and
// at 20k or 10k the 10-40 ms stalls of a shared 2-vCPU host overflowed
// it in most runs, so the failure count changed from run to run.
var relayWorkload = &workload{
	name: "relay_interleaved",
	gen: func(seed int64, seconds float64) *inputs {
		const rate = 5000
		return zipfInputs(seed, 256, int(seconds*rate), 1.1, time.Second/rate)
	},
	build:  buildRelay,
	points: []string{"gwA.tap", "bridge.entry", "gwB.consumer"},
	segments: []segment{
		{"ingest.arrive_ms_p50", -1, 0},
		{"stream.transit_ms_p50", 0, 1},
		{"consumer.deliver_ms_p50", 1, 2},
	},
}

type relayPlant struct {
	in   *inputs
	tk   *traceKit
	t0ns atomic.Int64

	dir   string
	hist  *histstore.Store
	arch  *consumer.Archiver
	gwA   *gateway.Gateway
	gwB   *gateway.Gateway
	srvA  *gateway.TCPServer
	br    *bridge.Bridge
	pub   *gateway.Publisher
	final *tracker
	subs  []*bus.Subscription

	pubErrs atomic.Uint64
	target  *timedTarget
}

func buildRelay(in *inputs, cfg config, tk *traceKit) (plant, error) {
	p := &relayPlant{in: in, tk: tk}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	var err error
	if p.dir, err = os.MkdirTemp(cfg.workdir, "relay-"); err != nil {
		return nil, err
	}
	if p.hist, err = histstore.Open(p.dir, histstore.Options{}); err != nil {
		return nil, err
	}
	// gwA as gatewayd -archive wires it.
	p.gwA = gateway.New("gwA", nil)
	p.arch = consumer.NewArchiver(nil)
	p.arch.SetHistory(p.hist)
	if tk != nil {
		p.subs = append(p.subs, tk.archive(p.gwA.Bus(), p.arch))
	} else {
		p.arch.SubscribeBus(p.gwA.Bus(), "")
	}
	p.gwA.SetHistoryFallback(p.hist)
	if p.srvA, err = gateway.ServeTCP(p.gwA, "127.0.0.1:0", nil); err != nil {
		return nil, err
	}
	p.srvA.SetHistory(p.hist)

	// gwB with the benchmark's consumer callback.
	p.gwB = gateway.New("gwB", nil)
	p.final = newTracker(in)
	p.final.dropAt = cfg.dropAt
	p.subs = append(p.subs, p.gwB.Bus().SubscribeBatchTopics("", nil, func(topic string, recs []ulm.Record) {
		p.final.take(topicIndex(in, topic), recs)
	}))

	var target bridge.Target = p.gwB
	if tk != nil {
		p.target = &timedTarget{gw: p.gwB, tk: tk}
		target = p.target
		for _, gw := range []*gateway.Gateway{p.gwA, p.gwB} {
			gw.SetTracer(tk.tracer)
			tk.observeBus(gw.Bus())
		}
		p.subs = append(p.subs, tk.tap(p.gwA.Bus(), 0, &p.t0ns))
		p.final.mark = func(g int, at time.Duration) {
			tk.sp.set(2, g, at)
			if e := p.target.entry.Load(); e != 0 {
				tk.sp.set(1, g, time.Duration(e-p.t0ns.Load()))
			}
		}
	}
	p.br = bridge.New(gateway.NewClient("gatewayd/gwB", p.srvA.Addr()), target, bridge.Options{
		BatchMax: 64, BatchWait: 2 * time.Millisecond,
	})
	if tk != nil {
		p.br.SetTracer(tk.tracer)
	}
	if !p.br.WaitConnected(5 * time.Second) {
		return nil, fmt.Errorf("bridge never connected")
	}
	if p.pub, err = gateway.NewClient("jammd/bench", p.srvA.Addr()).NewBatchPublisher(gateway.FormatULM, 64, 5*time.Millisecond); err != nil {
		return nil, err
	}
	ok = true
	return p, nil
}

func topicIndex(in *inputs, topic string) int {
	if s, ok := in.topics[topic]; ok {
		return s
	}
	return -1
}

func (p *relayPlant) publish(g int, wall0 time.Time) {
	rec := p.in.record(g, wall0)
	if err := p.pub.Publish(p.in.names[p.in.sensor[g]], rec); err != nil {
		p.pubErrs.Add(1)
	}
}

func (p *relayPlant) warm() error {
	p.final.arm()
	now := time.Now()
	for s := 0; s < p.in.sensors(); s++ {
		p.publish(s, now)
	}
	if err := p.pub.Flush(); err != nil {
		return err
	}
	if !waitFor(10*time.Second, p.final.warmedUp) {
		return fmt.Errorf("warm-up records never reached gwB")
	}
	return nil
}

func (p *relayPlant) load(t0 time.Time) genStats {
	p.t0ns.Store(int64(t0.Sub(clock0)) + 1)
	p.final.start(t0)
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

// sheds sums the named, counted loss sites on the path.
func (p *relayPlant) sheds() uint64 {
	return p.srvA.WireStats().SubDrops + p.pub.Dropped() + p.pubErrs.Load() + p.br.Stats().LoopDrops
}

func (p *relayPlant) ingested() uint64 {
	return uint64(p.in.total()) - p.pub.Dropped() - p.pubErrs.Load()
}

func (p *relayPlant) settled() bool {
	return p.final.count()+p.sheds() >= uint64(p.in.total()) &&
		uint64(p.hist.Stats().Records) >= p.ingested()
}

func (p *relayPlant) check(o *outcome, ph phase) {
	total := uint64(p.in.total())
	f := p.final
	ws := p.srvA.WireStats()
	hs := p.hist.Stats()
	checkTracker(o, "gwB consumer", f)
	if got := f.delivered + p.sheds(); got != total {
		o.violate("conservation at gwB: delivered %d + sheds %d != offered %d", f.delivered, p.sheds(), total)
	}
	if uint64(hs.Records) != p.ingested() || p.arch.HistErrors() != 0 {
		o.violate("archive holds %d records (%d append errors), want %d", hs.Records, p.arch.HistErrors(), p.ingested())
	}
	o.failed += f.missing()

	c := gateway.NewClient("eventbench", p.srvA.Addr())
	o.attempted++
	// With no publisher loss the archive must hold every record.
	if p.ingested() == total {
		if err := checkHistory(p.in, 0, all, c.History); err != nil {
			o.failed++
			o.violate("archive history of %s: %v", p.in.names[0], err)
		}
	}

	f.latency(o)
	o.layer["consumer.order_violations"] = float64(f.dups + f.reorders)
	o.layer["publisher.dropped"] = float64(p.pub.Dropped() + p.pubErrs.Load())
	o.layer["ingest.frames_per_rec"] = float64(p.gwA.FrameStats().Decodes) / float64(total)
	o.layer["ingest.bad_records"] = float64(ws.BadRecords + ws.BadFrames)
	o.layer["stream.sub_drops"] = float64(ws.SubDrops)
	if hs.AppendBatches > 0 {
		o.layer["histstore.recs_per_append"] = float64(hs.Records) / float64(hs.AppendBatches)
	}
	if t := p.target; t != nil {
		fr, br := float64(t.frameRecs.Load()), float64(t.batchRecs.Load())
		if fr+br > 0 {
			o.layer["bridge.relayed_frac"] = fr / (fr + br)
		}
	}
}

func (p *relayPlant) close() {
	if p.pub != nil {
		p.pub.Close()
	}
	if p.br != nil {
		p.br.Close()
	}
	if p.srvA != nil {
		p.srvA.Close()
	}
	for _, s := range p.subs {
		s.Cancel()
	}
	if p.arch != nil {
		p.arch.Close()
	}
	if p.hist != nil {
		p.hist.Close()
	}
	if p.dir != "" {
		os.RemoveAll(p.dir)
	}
}

// timedTarget is the bridge's target in the traced run: gwB behind a
// timer, implementing bridge.Target and bridge.FrameTarget so the
// bridge stays in zero-copy relay position. entry holds the clock
// reading at which the batch now being delivered entered gwB; gwB
// delivers synchronously, so the benchmark's consumer reads it from
// inside the call.
type timedTarget struct {
	gw        *gateway.Gateway
	tk        *traceKit
	entry     atomic.Int64
	frameRecs atomic.Uint64
	batchRecs atomic.Uint64
}

func (t *timedTarget) enter() time.Time {
	t.entry.Store(nanotime())
	return time.Now()
}

func (t *timedTarget) Publish(topic string, rec ulm.Record) {
	start := t.enter()
	t.gw.Publish(topic, rec)
	t.tk.target.add(time.Since(start))
	t.batchRecs.Add(1)
}

func (t *timedTarget) PublishBatch(topic string, recs []ulm.Record) {
	start := t.enter()
	t.gw.PublishBatch(topic, recs)
	t.tk.target.add(time.Since(start))
	t.batchRecs.Add(uint64(len(recs)))
}

func (t *timedTarget) PublishFrame(f *gateway.Frame) error {
	start := t.enter()
	err := t.gw.PublishFrame(f)
	t.tk.target.add(time.Since(start))
	t.frameRecs.Add(uint64(f.Count))
	return err
}
