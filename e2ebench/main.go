// Command e2ebench is the repository's end-to-end benchmark: the
// paper's protect → detonate → report → verdict loop, and the market
// traffic mixes behind it, driven from outside the program through its
// public packages. See README.md in this directory.
//
//	e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	e2ebench --repeat <n> [--workload <name>] [--seconds <s>]
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 they are the
// per-layer ones, and the run also writes its spans to
// .bench_build/trace-<workload>-<seed>.json.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// unit of every metric the benchmark reports. endToEnd and perLayer
// list the names BENCHMARK.json declares; every run reports all of the
// set its --trace flag selects.
var endToEnd = map[string]string{
	"setup_s":            "s",
	"heap_mb":            "MB",
	"detect_s":           "s",
	"ops_per_s":          "1/s",
	"ingest_p50_ms":      "ms",
	"ingest_p95_ms":      "ms",
	"verdict_p50_ms":     "ms",
	"verdict_p95_ms":     "ms",
	"similar_p50_ms":     "ms",
	"fingerprint_p50_ms": "ms",
	"timeline_p50_ms":    "ms",
}

var perLayer = map[string]string{
	"core.protect_ms":                     "ms",
	"core.stage.profile_ms":               "ms",
	"core.stage.construct_ms":             "ms",
	"sim.campaign_self_ms":                "ms",
	"sim.sessions_per_s":                  "1/s",
	"sim.events_per_session":              "count",
	"vm.instructions_per_session":         "count",
	"report.deliver_ms":                   "ms",
	"report.attempts_per_delivered":       "ratio",
	"market.verdict_read_ms":              "ms",
	"market.store.ingest_ms":              "ms",
	"market.store.verdict_us":             "us",
	"market.store.similar_us":             "us",
	"market.store.fingerprint_us":         "us",
	"market.store.timeline_us":            "us",
	"market.http_overhead.ingest_ms":      "ms",
	"market.http_overhead.verdict_ms":     "ms",
	"market.http_overhead.similar_ms":     "ms",
	"market.http_overhead.fingerprint_ms": "ms",
	"market.http_overhead.timeline_ms":    "ms",
	"market.server_ack_ms":                "ms",
	"market.fs.syncs_per_kevent":          "count",
	"market.fs.bytes_per_event":           "bytes",
	"market.fs.checkpoints":               "count",
	"market.seed_s":                       "s",
	"market.restart_ms":                   "ms",
	"market.retries_429":                  "count",
	"go.gc_cycles":                        "count",
	"go.gc_pause_ms":                      "ms",
	"similarity.candidates_us":            "us",
	"similarity.rank_us":                  "us",
	"similarity.scanned_per_query":        "count",
	"similarity.rescored_per_query":       "count",
	"similarity.useful_ratio":             "ratio",
	"similarity.lib_only_share":           "ratio",
	"cluster.post_ms":                     "ms",
	"cluster.verdict_ms":                  "ms",
	"cluster.similar_ms":                  "ms",
	"cluster.fanout_overhead.post_ms":     "ms",
	"cluster.fanout_overhead.verdict_ms":  "ms",
	"cluster.fanout_overhead.similar_ms":  "ms",
	"cluster.node_requests_per_post":      "count",
	"cluster.node_requests_per_verdict":   "count",
	"cluster.node_requests_per_similar":   "count",
	"cluster.front_overhead_ms":           "ms",
	"bench.trace_overhead_pct":            "%",
}

// setupRepeats is how many times a run performs its set-up; setup_s is
// their median. Only the last set-up's state is measured.
const setupRepeats = 3

// env is one run's configuration.
type env struct {
	seed    int64
	window  time.Duration // measured part
	warm    time.Duration // discarded lead-in before the window
	trace   bool
	dataDir string // fresh per run, removed afterwards
}

// runOut is what a workload hands back: its metrics, its operation
// counts, and every correctness problem it found.
type runOut struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int64
	failed    int64
	problems  []string
	tr        *tracer // the traced window's spans, nil untraced

	// cappedTimelines counts checked federated timelines past the
	// per-shard TimelineCap, compared by their documented invariants.
	cappedTimelines int
}

func (o *runOut) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = map[string]func(context.Context, *env) (*runOut, error){
	"protect-detect": runProtectDetect,
	"market-mix":     func(ctx context.Context, e *env) (*runOut, error) { return runMix(ctx, e, false) },
	"federated-mix":  func(ctx context.Context, e *env) (*runOut, error) { return runMix(ctx, e, true) },
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: protect-detect, market-mix or federated-mix")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	repeat := flag.Int("repeat", 0, "run each workload this many times (seeds 1..n) and print spreads")
	protect := flag.Bool("protect-once", false, "internal: one cold protect-detect set-up, printed as JSON")
	flag.Parse()

	if *protect {
		if err := protectOnce(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}

	if *repeat > 0 {
		if err := repeatMode(*workload, *repeat, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			os.Exit(1)
		}
		return
	}
	wl, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need --workload protect-detect|market-mix|federated-mix, --seconds ≥ 1, --trace 0|1")
		os.Exit(2)
	}
	if err := run(wl, *workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(wl func(context.Context, *env) (*runOut, error), name string, seed int64, seconds int, trace bool) error {
	root := filepath.Join(".bench_build", "data")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	window := time.Duration(seconds) * time.Second
	e := &env{seed: seed, window: window, warm: max(window/10, 500*time.Millisecond), trace: trace, dataDir: dir}
	// The process deadline keeps a wedged run inside the 180 s budget:
	// set-up and checks take a few seconds, a traced run two windows.
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()
	out, err := wl(ctx, e)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		out.fail("run overran its deadline")
	}

	res := resultJSON{Metrics: map[string]metricJSON{}}
	want, got := endToEnd, out.e2e
	if trace {
		want, got = perLayer, out.layer
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := out.tr.write(path, name, seed); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	for m, unit := range want {
		v := got[m]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out.problems = append(out.problems, fmt.Sprintf("metric %s is not a number", m))
			v = 0
		}
		if !trace && v == 0 {
			out.problems = append(out.problems, fmt.Sprintf("metric %s was not measured", m))
		}
		res.Metrics[m] = metricJSON{Value: v, Unit: unit}
	}
	res.Attempted, res.Failed = max(out.attempted, 1), out.failed
	res.Correct = len(out.problems) == 0 && out.failed == 0
	if out.cappedTimelines > 0 {
		fmt.Fprintf(os.Stderr, "%d federated timelines past TimelineCap checked by head and totals\n", out.cappedTimelines)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// measureSetup runs setup setupRepeats times and returns the median
// wall time in seconds. Each set-up ends with a forced GC, so garbage
// it leaves is not charged to the window. reset, untimed, tears down
// the previous set-up before the next one starts.
func measureSetup(setup func() error, reset func()) (float64, error) {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			reset()
		}
		t0 := time.Now()
		if err := setup(); err != nil {
			return 0, err
		}
		runtime.GC()
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// gcDelta measures garbage-collector work across a window.
type gcDelta struct{ start runtime.MemStats }

func startGC() *gcDelta {
	g := &gcDelta{}
	runtime.ReadMemStats(&g.start)
	return g
}

func (g *gcDelta) stop(layer map[string]float64) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	layer["go.gc_cycles"] = float64(end.NumGC - g.start.NumGC)
	layer["go.gc_pause_ms"] = float64(end.PauseTotalNs-g.start.PauseTotalNs) / 1e6
}

// heapEvery is how often a heapSampler reads the live heap.
const heapEvery = 100 * time.Millisecond

// heapSampler reads, every heapEvery, the live heap the garbage
// collector measured at the end of its last cycle
// (runtime/metrics /gc/heap/live:bytes), without forcing a collection.
// heap_mb is the median of a window's readings: the market's dedup
// window rotates its generations every DedupWindow admissions, so the
// live heap is a sawtooth, and one reading at the end of a window
// would depend on where in a generation the window stopped.
type heapSampler struct {
	stop, done chan struct{}
	at         []time.Time
	mb         []float64
}

func sampleHeap() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		m := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case now := <-t.C:
				metrics.Read(m)
				h.at = append(h.at, now)
				h.mb = append(h.mb, float64(m[0].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// medianFrom stops the sampler, waits for it, and returns the median
// of its readings taken at or after from.
func (h *heapSampler) medianFrom(from time.Time) float64 {
	close(h.stop)
	<-h.done
	var xs []float64
	for i, t := range h.at {
		if !t.Before(from) {
			xs = append(xs, h.mb[i])
		}
	}
	return median(xs)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
