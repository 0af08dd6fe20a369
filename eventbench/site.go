package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"jamm/internal/bridge"
	"jamm/internal/bus"
	"jamm/internal/consumer"
	"jamm/internal/gateway"
	"jamm/internal/histstore"
	"jamm/internal/ring"
	"jamm/internal/router"
	"jamm/internal/ulm"
)

// site_batched_rw: a 3-gateway sharded site with k=2 replication, every
// gateway archiving, as gatewayd -ring -replicas 2 -archive wires it.
// The Router publishes 16-record per-sensor batches; beside the writes
// run open-loop Router.Query and Router.History reads.
var siteWorkload = &workload{
	name: "site_batched_rw",
	gen: func(seed int64, seconds float64) *inputs {
		const rate, batch = 20000, 16
		return uniformInputs(seed, 64, int(seconds*rate/batch), batch, batch*time.Second/rate)
	},
	build:  buildSite,
	points: []string{"primary.arrive", "replica.arrive"},
	segments: []segment{
		{"ingest.arrive_ms_p50", -1, 0},
		{"replicator.lag_ms_p50", 0, 1},
	},
}

const (
	siteGateways = 3
	siteReplicas = 2
	// Reads: Router.Query at 200/s and Router.History (last second of
	// one sensor) at 20/s, interleaved on one schedule ticking every
	// 2.5 ms: queries on even ticks, a history read on every 20th.
	readTick     = 2500 * time.Microsecond
	historyEvery = 20
)

type sitePlant struct {
	in *inputs
	tk *traceKit
	t0 time.Time

	dirs  []string
	hists []*histstore.Store
	archs []*consumer.Archiver
	gws   []*gateway.Gateway
	srvs  []*gateway.TCPServer
	reps  []*bridge.Replicator
	rt    *router.Router
	subs  []*bus.Subscription
	role  [][]int8 // [gateway][sensor]: 0 primary, 1 replica, -1 neither

	primary, replica *tracker
	stray            atomic.Uint64 // records at a gateway outside the sensor's placement
	pubErrs          atomic.Uint64

	pick      []uint8 // sensor of each read tick
	qh, hh    samples
	histRecs  int
	reads     int
	readFails int
}

func buildSite(in *inputs, cfg config, tk *traceKit) (plant, error) {
	p := &sitePlant{in: in, tk: tk}
	r := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))
	p.pick = make([]uint8, phaseLen(in)/readTick)
	p.qh = make(samples, 0, len(p.pick)/2+1)
	p.hh = make(samples, 0, len(p.pick)/historyEvery+1)
	for i := range p.pick {
		p.pick[i] = uint8(r.Intn(in.sensors()))
	}
	ok := false
	defer func() {
		if !ok {
			p.close()
		}
	}()
	addrs := make([]string, siteGateways)
	for i := 0; i < siteGateways; i++ {
		dir, err := os.MkdirTemp(cfg.workdir, "site-")
		if err != nil {
			return nil, err
		}
		p.dirs = append(p.dirs, dir)
		h, err := histstore.Open(dir, histstore.Options{})
		if err != nil {
			return nil, err
		}
		p.hists = append(p.hists, h)
		gw := gateway.New(fmt.Sprintf("gw%d", i), nil)
		p.gws = append(p.gws, gw)
		a := consumer.NewArchiver(nil)
		a.SetHistory(h)
		p.archs = append(p.archs, a)
		if tk != nil {
			p.subs = append(p.subs, tk.archive(gw.Bus(), a))
			gw.SetTracer(tk.tracer)
			tk.observeBus(gw.Bus())
		} else {
			a.SubscribeBus(gw.Bus(), "")
		}
		gw.SetHistoryFallback(h)
		srv, err := gateway.ServeTCP(gw, "127.0.0.1:0", nil)
		if err != nil {
			return nil, err
		}
		srv.SetHistory(h)
		p.srvs = append(p.srvs, srv)
		addrs[i] = srv.Addr()
	}
	rg := ring.New(addrs, 0)
	for i, gw := range p.gws {
		rep := bridge.NewReplicator(addrs[i], rg, siteReplicas, bridge.ReplicatorOptions{Principal: "gatewayd/" + gw.Name()})
		p.reps = append(p.reps, rep)
		if tk != nil {
			rep.SetTracer(tk.tracer)
			gw.SetForwarder(&timedForwarder{fw: rep, h: &tk.forward})
		} else {
			gw.SetForwarder(rep)
		}
	}
	var err error
	if p.rt, err = router.New(router.Options{Ring: rg, ReplicaK: siteReplicas, Principal: "eventbench"}); err != nil {
		return nil, err
	}
	if tk != nil {
		p.rt.SetTracer(tk.tracer)
	}

	// The benchmark's consumers: one wildcard batch subscription per
	// gateway, attributing each record to the primary or replica ledger
	// by the sensor's placement.
	p.primary, p.replica = newTracker(in), newTracker(in)
	p.replica.dropAt = cfg.dropAt
	p.role = make([][]int8, siteGateways)
	for i := range p.role {
		p.role[i] = make([]int8, in.sensors())
		for s := range p.role[i] {
			p.role[i][s] = -1
		}
	}
	for s, name := range in.names {
		for r, addr := range p.rt.Owners(name) {
			for i := range addrs {
				if addrs[i] == addr {
					p.role[i][s] = int8(r)
				}
			}
		}
	}
	for i, gw := range p.gws {
		role := p.role[i]
		p.subs = append(p.subs, gw.Bus().SubscribeBatchTopics("", nil, func(topic string, recs []ulm.Record) {
			s := topicIndex(in, topic)
			switch {
			case s >= 0 && role[s] == 0:
				p.primary.take(s, recs)
			case s >= 0 && role[s] == 1:
				p.replica.take(s, recs)
			default:
				p.stray.Add(uint64(len(recs)))
			}
		}))
	}
	if tk != nil {
		p.primary.mark = func(g int, at time.Duration) { tk.sp.set(0, g, at) }
		p.replica.mark = func(g int, at time.Duration) { tk.sp.set(1, g, at) }
	}
	ok = true
	return p, nil
}

func (p *sitePlant) warm() error {
	p.primary.arm()
	p.replica.arm()
	now := time.Now()
	for s := 0; s < p.in.sensors(); s++ {
		if err := p.rt.PublishBatch(p.in.names[s], []ulm.Record{p.in.record(s, now)}); err != nil {
			return err
		}
	}
	if err := p.rt.Flush(); err != nil {
		return err
	}
	if !waitFor(10*time.Second, func() bool { return p.primary.warmedUp() && p.replica.warmedUp() }) {
		return fmt.Errorf("warm-up records never reached their primaries and replicas")
	}
	return nil
}

func (p *sitePlant) load(t0 time.Time) genStats {
	p.t0 = t0
	p.primary.start(t0)
	p.replica.start(t0)
	in := p.in
	s0 := in.sensors()
	var wg sync.WaitGroup
	var rs genStats
	wg.Add(1)
	go func() {
		defer wg.Done()
		rs = p.readLoad(t0)
	}()
	ws := openLoop(t0, in.measured()/in.perSend, in.period, func(k int) {
		g := s0 + k*in.perSend
		recs := make([]ulm.Record, in.perSend)
		for i := range recs {
			recs[i] = in.record(g+i, t0)
		}
		var t time.Time
		if p.tk != nil {
			t = time.Now()
		}
		if err := p.rt.PublishBatch(in.names[in.sensor[g]], recs); err != nil {
			p.pubErrs.Add(uint64(len(recs)))
		}
		if p.tk != nil {
			p.tk.route.add(time.Since(t))
		}
	})
	// A failed flush's records are counted in the router's PublishDrops.
	_ = p.rt.Flush()
	wg.Wait()
	ws.sends += rs.sends
	ws.late += rs.late
	ws.lateMax = max(ws.lateMax, rs.lateMax)
	return ws
}

// readLoad is the open-loop reader, on the second generator goroutine.
// Each read is timed from when it was due.
func (p *sitePlant) readLoad(t0 time.Time) genStats {
	in := p.in
	return openLoop(t0, len(p.pick), readTick, func(k int) {
		due := time.Duration(k) * readTick
		name := in.names[p.pick[k]]
		switch {
		case k%2 == 0:
			_, found, err := p.rt.Query(name, eventName)
			p.qh.add(time.Since(t0) - due)
			if err != nil || !found {
				p.readFails++
			}
		case k%historyEvery == 1:
			recs, err := p.rt.History(gateway.HistoryRequest{Sensor: name, From: t0.Add(due - historyWin)})
			p.hh.add(time.Since(t0) - due)
			if err != nil {
				p.readFails++
			}
			p.histRecs += len(recs)
		default:
			return
		}
		p.reads++
	})
}

func (p *sitePlant) counters() (drops, shed uint64) {
	drops = p.rt.Stats().PublishDrops + p.pubErrs.Load()
	for _, r := range p.reps {
		shed += r.Stats().Shed
	}
	return drops, shed
}

func (p *sitePlant) archived() (recs int64, batches uint64) {
	for _, h := range p.hists {
		st := h.Stats()
		recs += st.Records
		batches += st.AppendBatches
	}
	return recs, batches
}

func (p *sitePlant) settled() bool {
	drops, shed := p.counters()
	prim, repl := p.primary.count(), p.replica.count()
	recs, _ := p.archived()
	return prim+drops >= uint64(p.in.total()) && repl+shed >= prim && uint64(recs) >= prim+repl
}

func (p *sitePlant) check(o *outcome, ph phase) {
	total := uint64(p.in.total())
	drops, shed := p.counters()
	prim, repl := p.primary, p.replica
	checkTracker(o, "primary", prim)
	checkTracker(o, "replica", repl)
	if prim.delivered+drops != total {
		o.violate("conservation at primaries: delivered %d + publish drops %d != offered %d", prim.delivered, drops, total)
	}
	if repl.delivered+shed != prim.delivered {
		o.violate("conservation at replicas: delivered %d + replicator shed %d != primary deliveries %d", repl.delivered, shed, prim.delivered)
	}
	if n := p.stray.Load(); n > 0 {
		o.violate("%d records reached a gateway outside their placement", n)
	}
	recs, batches := p.archived()
	var histErrs uint64
	for _, a := range p.archs {
		histErrs += a.HistErrors()
	}
	if uint64(recs) != prim.delivered+repl.delivered || histErrs != 0 {
		o.violate("archives hold %d records (%d append errors), want %d", recs, histErrs, prim.delivered+repl.delivered)
	}
	for g := 0; g < p.in.total(); g++ {
		if !prim.has(g) || !repl.has(g) {
			o.failed++
		}
	}
	o.attempted += uint64(p.reads) + 1
	o.failed += uint64(p.readFails)
	if err := checkHistory(p.in, 0, prim.has, p.rt.History); err != nil {
		o.failed++
		o.violate("archive history of %s: %v", p.in.names[0], err)
	}
	reads(o, p.qh, p.hh, p.histRecs)

	repl.latency(o)
	o.layer["consumer.order_violations"] = float64(prim.dups + prim.reorders + repl.dups + repl.reorders)
	var decodes, bad, subDrops uint64
	for i, gw := range p.gws {
		decodes += gw.FrameStats().Decodes
		ws := p.srvs[i].WireStats()
		bad += ws.BadRecords + ws.BadFrames
		subDrops += ws.SubDrops
	}
	if n := prim.delivered + repl.delivered; n > 0 {
		o.layer["ingest.frames_per_rec"] = float64(decodes) / float64(n)
	}
	o.layer["ingest.bad_records"] = float64(bad)
	o.layer["stream.sub_drops"] = float64(subDrops)
	if batches > 0 {
		o.layer["histstore.recs_per_append"] = float64(recs) / float64(batches)
	}
	rs := p.rt.Stats()
	o.layer["router.publish_drops"] = float64(drops)
	o.layer["router.failovers"] = float64(rs.Failovers)
	o.layer["replicator.shed"] = float64(shed)
	share := make([]int, siteGateways)
	for g := p.in.sensors(); g < p.in.total(); g++ {
		s := p.in.sensor[g]
		for i := range share {
			if p.role[i][s] == 0 {
				share[i]++
			}
		}
	}
	top := 0
	for _, n := range share {
		top = max(top, n)
	}
	o.layer["router.owner_share_max"] = float64(top) / float64(p.in.measured())
}

func (p *sitePlant) close() {
	if p.rt != nil {
		p.rt.Close()
	}
	for _, r := range p.reps {
		r.Close()
	}
	for _, s := range p.srvs {
		s.Close()
	}
	for _, s := range p.subs {
		s.Cancel()
	}
	for _, a := range p.archs {
		a.Close()
	}
	for _, h := range p.hists {
		h.Close()
	}
	for _, d := range p.dirs {
		os.RemoveAll(d)
	}
}

// timedForwarder wraps a gateway's replication Forwarder with a timer.
type timedForwarder struct {
	fw gateway.Forwarder
	h  *lockedHist
}

func (t *timedForwarder) Forward(sensor string, recs []ulm.Record, f *gateway.Frame) {
	start := time.Now()
	t.fw.Forward(sensor, recs, f)
	t.h.add(time.Since(start))
}
