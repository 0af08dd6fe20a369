// Command eventbench is the JAMM event-plane benchmark: it wires the
// event plane the way the daemons do (gateways, wire servers, bridges,
// archives, a sharded site with replication, filters, summaries and the
// aggregation plane), drives it open-loop from a seeded generator, and
// reports CPU per record, delivery latency, set-up time, heap and read
// latency, with correctness checks on every record. A traced run
// (-trace 1) reports a per-layer breakdown measured from outside, through
// public calls and hooks only.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash eventbench/run.sh --workload relay_interleaved --seed 1 --seconds 30 --trace 0
//	bash eventbench/run.sh --selftest
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. The exit code is nonzero when a
// correctness check fails.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

var workloads = []*workload{relayWorkload, siteWorkload, fanoutWorkload}

// units of every metric the benchmark reports, end-to-end then per layer.
var e2eUnits = map[string]string{
	"setup_s":        "s",
	"cpu_us_per_rec": "us",
	"e2e_p50_ms":     "ms",
	"heap_peak_mb":   "MiB",
}

var layerUnits = map[string]string{
	"gen.late_ms_max":           "ms",
	"gen.late_frac":             "ratio",
	"publisher.call_us_p50":     "us",
	"publisher.call_us_p99":     "us",
	"publisher.dropped":         "count",
	"ingest.frames_per_rec":     "frames/rec",
	"ingest.arrive_ms_p50":      "ms",
	"ingest.bad_records":        "count",
	"bus.deliver_us_p50":        "us",
	"bus.deliver_us_p99":        "us",
	"bus.recs_per_deliver":      "recs",
	"histstore.append_us_p50":   "us",
	"histstore.recs_per_append": "recs",
	"histstore.busy_frac":       "ratio",
	"stream.transit_ms_p50":     "ms",
	"stream.sub_drops":          "count",
	"bridge.relayed_frac":       "ratio",
	"bridge.target_us_p50":      "us",
	"consumer.deliver_ms_p50":   "ms",
	"consumer.lag_ms_p99":       "ms",
	"consumer.order_violations": "count",
	"router.publish_us_p50":     "us",
	"router.owner_share_max":    "ratio",
	"router.publish_drops":      "count",
	"router.failovers":          "count",
	"replicator.forward_us_p50": "us",
	"replicator.lag_ms_p50":     "ms",
	"replicator.shed":           "count",
	"read.query_ms_p50":         "ms",
	"read.history_ms_p50":       "ms",
	"read.query_ms_p99":         "ms",
	"read.history_ms_p99":       "ms",
	"read.history_recs_per_req": "recs",
	"filter.pass_ratio":         "ratio",
	"filter.ref_mismatch":       "count",
	"aggregate.folded_per_rec":  "ratio",
	"wire_consumer.lag_ms_p50":  "ms",
	"wire_consumer.sub_drops":   "count",
	"runtime.gc_cycles":         "count",
	"runtime.gc_cpu_frac":       "ratio",
	"runtime.allocs_per_rec":    "allocs/rec",
	"runtime.bytes_per_rec":     "B/rec",
	"trace.overhead_frac":       "ratio",
	"path.e2e_p50_ms":           "ms",
	"path.remainder_ms":         "ms",
	"tracer.ingest_us_mean":     "us",
	"tracer.bus_us_mean":        "us",
	"tracer.wire_us_mean":       "us",
	"tracer.relay_us_mean":      "us",
	"tracer.mirror_us_mean":     "us",
	"tracer.forward_us_mean":    "us",
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: relay_interleaved, site_batched_rw or fanout_filtered")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = run an untraced and a traced pass of half the length each and report per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/eventbench", "working directory for archives and span files")
	selftest := flag.Bool("selftest", false, "check that an injected one-record loss fails every workload's conservation check")
	flag.Parse()

	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	if *selftest {
		os.Exit(selfTest(*workdir))
	}
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "eventbench: need --workload (one of %s), --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, workdir: *workdir}
	if *trace == 1 {
		// A traced run measures two passes, untraced then traced, in
		// the time of one.
		cfg.seconds /= 2
	}
	in := w.gen(cfg.seed, cfg.seconds)

	o, err := measure(w, in, cfg, false)
	if err != nil {
		fatal(err)
	}
	res := result{Correct: len(o.violations) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	outcomes := []*outcome{o}
	if *trace == 1 {
		t, err := measure(w, in, cfg, true)
		if err != nil {
			fatal(err)
		}
		outcomes = append(outcomes, t)
		res.Correct = res.Correct && len(t.violations) == 0
		res.Attempted += t.attempted
		res.Failed += t.failed
		if base := o.e2e["cpu_us_per_rec"]; base > 0 {
			t.layer["trace.overhead_frac"] = t.e2e["cpu_us_per_rec"]/base - 1
		}
		for n, u := range layerUnits {
			res.Metrics[n] = metricValue{t.layer[n], u}
		}
		if err := writeSpans(w, cfg, t); err != nil {
			fmt.Fprintf(os.Stderr, "eventbench: spans: %v\n", err)
		}
	} else {
		for n, u := range e2eUnits {
			res.Metrics[n] = metricValue{o.e2e[n], u}
		}
	}

	printStamp(w, cfg, outcomes)
	for i, oc := range outcomes {
		pass := "untraced"
		if i == 1 {
			pass = "traced"
		}
		for _, n := range sortedKeys(oc.e2e) {
			fmt.Printf("%-9s %-32s %14.4f %s\n", pass, n, oc.e2e[n], e2eUnits[n])
		}
		// Read latency is reported for the workload that reads, not gated.
		for _, n := range []string{"read.query_ms_p50", "read.history_ms_p50"} {
			if v := oc.layer[n]; v > 0 {
				fmt.Printf("%-9s %-32s %14.4f %s (not gated)\n", pass, n, v, layerUnits[n])
			}
		}
		for _, line := range oc.notes {
			fmt.Println(line)
		}
		for _, v := range oc.violations {
			fmt.Printf("CHECK FAILED (%s): %s\n", pass, v)
		}
	}
	if *trace == 1 {
		for _, n := range sortedKeys(res.Metrics) {
			fmt.Printf("layer     %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "eventbench: %v\n", err)
	os.Exit(1)
}

func workloadNames() string {
	var n []string
	for _, w := range workloads {
		n = append(n, w.name)
	}
	return strings.Join(n, ", ")
}

func sortedKeys[V any](m map[string]V) []string {
	k := make([]string, 0, len(m))
	for n := range m {
		k = append(k, n)
	}
	sort.Strings(k)
	return k
}

// printStamp prints what the result was measured on and with.
func printStamp(w *workload, cfg config, outs []*outcome) {
	stamp := map[string]any{
		"workload":     w.name,
		"seed":         cfg.seed,
		"pass_seconds": cfg.seconds,
		"host_cpu":     cpuModel(),
		"nproc":        runtime.NumCPU(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"go":           runtime.Version(),
		"commit":       commit(),
	}
	for i, o := range outs {
		pass := []string{"untraced", "traced"}[i]
		stamp[pass] = map[string]any{
			"attempted":       o.attempted,
			"failed":          o.failed,
			"gen_late_ms_max": o.layer["gen.late_ms_max"],
			"gen_late_frac":   o.layer["gen.late_frac"],
		}
	}
	b, _ := json.Marshal(stamp)
	fmt.Printf("stamp %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code measured: the BENCH_COMMIT environment variable
// when the wrapper could resolve one, else a digest of the module's Go
// sources (the benchmark may run from a tree that is not a repository).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			io.WriteString(h, path+"\x00")
			_, err = io.Copy(h, f)
			return err
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// writeSpans writes the traced run's sampled spans, one record per
// line: sensor, SEQ, then each span point's offset in ns from the start
// of the measured phase (-1 where the record never crossed it).
func writeSpans(w *workload, cfg config, o *outcome) error {
	tk := o.spans
	if tk == nil {
		return nil
	}
	path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-seed%d.tsv", w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "sensor\tseq\tdue\t%s\n", strings.Join(tk.names, "\t"))
	for k := range tk.pts[0] {
		g := tk.in.sensors() + k*tk.every
		if g >= tk.in.total() {
			break
		}
		fmt.Fprintf(f, "%s\t%d\t%d", tk.in.names[tk.in.sensor[g]], tk.in.seq[g], int64(tk.in.dueOf(g)))
		for p := range tk.pts {
			fmt.Fprintf(f, "\t%d", tk.pts[p][k]-1)
		}
		fmt.Fprintln(f)
	}
	return f.Close()
}

// selfTest runs every workload briefly twice: clean, the checks must
// pass; with one record discarded by the benchmark's own consumer, the
// conservation check must fail.
func selfTest(workdir string) int {
	code := 0
	for _, w := range workloads {
		for _, drop := range []uint64{0, 1000} {
			cfg := config{seed: 1, seconds: 3, workdir: workdir, dropAt: drop}
			o, err := measure(w, w.gen(cfg.seed, cfg.seconds), cfg, false)
			if err != nil {
				fmt.Printf("selftest %-18s drop=%-4d ERROR %v\n", w.name, drop, err)
				code = 1
				continue
			}
			conservation := false
			for _, v := range o.violations {
				if strings.Contains(v, "conservation") {
					conservation = true
				}
			}
			ok := len(o.violations) == 0
			if drop > 0 {
				ok = conservation
			}
			verdict := "PASS"
			if !ok {
				verdict = "FAIL"
				code = 1
			}
			fmt.Printf("selftest %-18s drop=%-4d %s violations=%q\n", w.name, drop, verdict, o.violations)
		}
	}
	return code
}
