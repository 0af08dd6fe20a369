package main

import (
	"fmt"
	"time"

	"jamm/internal/gateway"
)

// checkTracker flags duplicates, order violations and records the
// consumer could not attribute — none of which any counter explains.
func checkTracker(o *outcome, name string, t *tracker) {
	if t.dups > 0 {
		o.violate("%s: %d duplicate records", name, t.dups)
	}
	if t.reorders > 0 {
		o.violate("%s: %d per-sensor SEQ order violations", name, t.reorders)
	}
	if t.unknown > 0 {
		o.violate("%s: %d records with an unknown sensor or SEQ", name, t.unknown)
	}
}

// checkHistory reads sensor s's whole archived history back and checks
// it is s's SEQ run in order: every record want(g) admits, and no other.
func checkHistory(in *inputs, s int, want func(g int) bool, history func(gateway.HistoryRequest) ([]gateway.TopicRecord, error)) error {
	recs, err := history(gateway.HistoryRequest{Sensor: in.names[s]})
	if err != nil {
		return err
	}
	var got []uint64
	for i := range recs {
		if recs[i].Rec.Event != eventName {
			continue
		}
		seq, ok := seqOf(&recs[i].Rec)
		if !ok {
			return fmt.Errorf("archived record without SEQ: %v", recs[i].Rec)
		}
		got = append(got, seq)
	}
	k := 0
	for seq, g := range in.idxOf[s] {
		if !want(int(g)) {
			continue
		}
		if k >= len(got) || got[k] != uint64(seq) {
			return fmt.Errorf("SEQ run broken at SEQ %d (%d records returned)", seq, len(got))
		}
		k++
	}
	if k != len(got) {
		return fmt.Errorf("%d records returned, want %d", len(got), k)
	}
	return nil
}

func all(int) bool { return true }

// historyWin is how far back a History read looks.
const historyWin = time.Second

// reads reports the read-path metrics from query and history
// latencies and the history records returned.
func reads(o *outcome, q, h samples, recs int) {
	o.layer["read.query_ms_p50"] = q.quantile(0.5) / 1e6
	o.layer["read.history_ms_p50"] = h.quantile(0.5) / 1e6
	o.layer["read.query_ms_p99"] = q.quantile(0.99) / 1e6
	o.layer["read.history_ms_p99"] = h.quantile(0.99) / 1e6
	if len(h) > 0 {
		o.layer["read.history_recs_per_req"] = float64(recs) / float64(len(h))
	}
}
