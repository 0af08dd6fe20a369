package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"jamm/internal/ulm"
)

// eventName is the NL.EVNT every generated record carries.
const eventName = "BENCH_VAL"

// inputs is one workload's generated record stream, built from the seed
// before anything is timed. Records live as compact parallel arrays
// (sensor, sequence, value) indexed by a global record index g; ulm
// records are built only at send time and dropped right after, so no
// per-record heap object survives into the measured phase.
//
// Index g < sensors is sensor g's warm-up record (SEQ 0), published
// untimed before the measured phase; g >= sensors is measured record
// g-sensors, due at dueOf(g).
type inputs struct {
	names  []string // bus topic per sensor
	hosts  []string // HOST field per sensor
	topics map[string]int
	byHost map[string]int

	sensor []uint16
	seq    []uint32
	val    []int16 // VAL in tenths

	idxOf [][]int32 // [sensor][seq] -> g

	perSend int           // records sharing one due time (one send)
	period  time.Duration // between sends
}

func newInputs(sensors, measured int) *inputs {
	in := &inputs{
		names:  make([]string, sensors),
		hosts:  make([]string, sensors),
		topics: make(map[string]int, sensors),
		byHost: make(map[string]int, sensors),
		sensor: make([]uint16, sensors, sensors+measured),
		seq:    make([]uint32, sensors, sensors+measured),
		val:    make([]int16, sensors, sensors+measured),
	}
	for s := 0; s < sensors; s++ {
		in.hosts[s] = fmt.Sprintf("h%03d", s)
		in.names[s] = "bench.val@" + in.hosts[s]
		in.topics[in.names[s]] = s
		in.byHost[in.hosts[s]] = s
		in.sensor[s] = uint16(s)
	}
	return in
}

// add appends the next record of sensor s with value v (tenths).
func (in *inputs) add(s int, v int16, next []uint32) {
	next[s]++
	in.sensor = append(in.sensor, uint16(s))
	in.seq = append(in.seq, next[s])
	in.val = append(in.val, v)
}

// index builds the (sensor, seq) -> g lookup once the stream is complete.
func (in *inputs) index() {
	counts := make([]int, len(in.names))
	for _, s := range in.sensor {
		counts[s]++
	}
	in.idxOf = make([][]int32, len(in.names))
	for s, c := range counts {
		in.idxOf[s] = make([]int32, c)
	}
	for g, s := range in.sensor {
		in.idxOf[s][in.seq[g]] = int32(g)
	}
}

func (in *inputs) sensors() int  { return len(in.names) }
func (in *inputs) total() int    { return len(in.sensor) }
func (in *inputs) measured() int { return len(in.sensor) - len(in.names) }

// dueOf is record g's scheduled offset from the start of the measured
// phase (0 for warm-up records).
func (in *inputs) dueOf(g int) time.Duration {
	if g < len(in.names) {
		return 0
	}
	return time.Duration((g-len(in.names))/in.perSend) * in.period
}

// window is the reporting window: the measured phase is cut into
// windows by due time and the end-to-end figures are medians over
// windows, so a burst of outside interference moves one window, not
// the result.
const window = time.Second

// windows is how many reporting windows the measured phase spans.
func (in *inputs) windows() int {
	return max(1, int((phaseLen(in)+window-1)/window))
}

// windowOf is the reporting window record g was due in (-1: warm-up).
func (in *inputs) windowOf(g int) int {
	if g < len(in.names) {
		return -1
	}
	return min(int(in.dueOf(g)/window), in.windows()-1)
}

// phaseLen is how long the measured schedule runs.
func phaseLen(in *inputs) time.Duration {
	return time.Duration(in.measured()/in.perSend) * in.period
}

// lookup resolves a delivered (sensor, seq) to its global index, or -1.
func (in *inputs) lookup(s int, seq uint64) int {
	if s < 0 || s >= len(in.idxOf) || seq >= uint64(len(in.idxOf[s])) {
		return -1
	}
	return int(in.idxOf[s][seq])
}

func formatTenths(v int16) string { return strconv.FormatFloat(float64(v)/10, 'f', 1, 64) }

// record materializes record g for sending. DATE is the due time on the
// wall clock, so archive time-range reads select what was due then.
func (in *inputs) record(g int, wall0 time.Time) ulm.Record {
	s := in.sensor[g]
	due := in.dueOf(g)
	return ulm.Record{
		Date: wall0.Add(due), Host: in.hosts[s], Prog: "eventbench", Lvl: "Usage", Event: eventName,
		Fields: []ulm.Field{
			{Key: "SEQ", Value: strconv.FormatUint(uint64(in.seq[g]), 10)},
			{Key: "DUE", Value: strconv.FormatInt(due.Microseconds(), 10)},
			{Key: "VAL", Value: formatTenths(in.val[g])},
		},
	}
}

// seqOf parses a delivered record's SEQ field.
func seqOf(rec *ulm.Record) (uint64, bool) {
	for i := range rec.Fields {
		if rec.Fields[i].Key == "SEQ" {
			v, err := strconv.ParseUint(rec.Fields[i].Value, 10, 32)
			return v, err == nil
		}
	}
	return 0, false
}

// zipfInputs draws each record's sensor from a Zipf(s) law over n
// sensors, one record per send — the interleaved host-sensor mix.
func zipfInputs(seed int64, sensors, measured int, s float64, period time.Duration) *inputs {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, s, 1, uint64(sensors-1))
	in := newInputs(sensors, measured)
	next := make([]uint32, sensors)
	walk := make([]int16, sensors)
	for i := range walk {
		walk[i] = int16(r.Intn(1001))
		in.val[i] = walk[i]
	}
	for j := 0; j < measured; j++ {
		k := int(z.Uint64())
		walk[k] = step(r, walk[k])
		in.add(k, walk[k], next)
	}
	in.perSend, in.period = 1, period
	in.index()
	return in
}

// uniformInputs draws each send's sensor uniformly, perSend consecutive
// records of that sensor per send.
func uniformInputs(seed int64, sensors, sends, perSend int, period time.Duration) *inputs {
	r := rand.New(rand.NewSource(seed))
	in := newInputs(sensors, sends*perSend)
	next := make([]uint32, sensors)
	walk := make([]int16, sensors)
	for i := range walk {
		walk[i] = int16(r.Intn(1001))
		in.val[i] = walk[i]
	}
	for j := 0; j < sends; j++ {
		k := r.Intn(sensors)
		for i := 0; i < perSend; i++ {
			walk[k] = step(r, walk[k])
			in.add(k, walk[k], next)
		}
	}
	in.perSend, in.period = perSend, period
	in.index()
	return in
}

// step is one random-walk move of a VAL in tenths, kept in [0, 100.0]:
// half the time the value holds (so on-change filters suppress), else
// it moves by up to 5 tenths.
func step(r *rand.Rand, v int16) int16 {
	if r.Intn(2) == 0 {
		return v
	}
	d := int16(r.Intn(5) + 1)
	if r.Intn(2) == 0 {
		d = -d
	}
	v += d
	if v < 0 {
		v = -v
	}
	if v > 1000 {
		v = 2000 - v
	}
	return v
}

// genStats is the open-loop generator's own validity record.
type genStats struct {
	sends   int
	late    int // sends more than lateLimit past due
	lateMax time.Duration
}

const lateLimit = 2 * time.Millisecond

// openLoop calls send(k) for k in [0, n) at t0 + k*period, whatever the
// system under test is doing: a slow send delays the sends behind it,
// which then go out late (and are timed from when they were due), but
// the schedule itself never slows. Nothing is sent early. Each wake-up
// sends everything due by then.
func openLoop(t0 time.Time, n int, period time.Duration, send func(k int)) genStats {
	var st genStats
	tm := time.NewTimer(time.Hour)
	defer tm.Stop()
	for k := 0; k < n; {
		now := time.Since(t0)
		if due := time.Duration(k) * period; now < due {
			tm.Reset(due - now)
			<-tm.C
			continue
		}
		for ; k < n && time.Duration(k)*period <= now; k++ {
			late := time.Since(t0) - time.Duration(k)*period
			st.lateMax = max(st.lateMax, late)
			if late > lateLimit {
				st.late++
			}
			send(k)
			st.sends++
		}
	}
	return st
}
