package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory while a traced run executes and writes
// them out once it ends. Spans are recorded only by the benchmark's
// own code, around its calls into each layer; the program itself is
// not instrumented. A nil *tracer records nothing, so untraced runs
// pay one nil check per call site.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. Op groups the spans of one
// benchmark operation; Parent is the span that caused this one (0 for
// an operation's root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Op      int64  `json:"op"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// Layer names: the repository's modules as the benchmark sees them.
const (
	layerBench      = "bench"
	layerProtect    = "exp/core/artifact"
	layerAPK        = "apk"
	layerSim        = "sim/vm"
	layerReport     = "report"
	layerMarket     = "market"
	layerSimilarity = "market/similarity"
	layerCluster    = "market/cluster"
)

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id allocates a span ID up front, so children can name their parent
// before the parent's span is complete.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores a finished span.
func (t *tracer) record(id, parent, op int64, name, layer string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// layerTimes is each layer's total and self time: a span's self time
// is its duration minus the part of it its child spans cover.
type layerTimes struct {
	Spans   int     `json:"spans"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

func (t *tracer) layers() map[string]layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTimes)
	for _, s := range t.spans {
		lt := out[s.Layer]
		lt.Spans++
		dur := s.EndNs - s.StartNs
		lt.TotalMs += float64(dur) / 1e6
		lt.SelfMs += float64(dur-covered(s, children[s.ID])) / 1e6
		out[s.Layer] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// write saves the spans and the per-layer summary as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	layers := t.layers()
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string                `json:"workload"`
		Seed     int64                 `json:"seed"`
		Layers   map[string]layerTimes `json:"layers"`
		Spans    []span                `json:"spans"`
	}{workload, seed, layers, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
