package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"bombdroid/internal/market"
	"bombdroid/internal/market/cluster"
	"bombdroid/internal/market/marketfs"
	"bombdroid/internal/report"
)

// The market mix: each client picks its next operation with these
// probabilities (cumulative), for a Zipf-popular app.
const (
	pPost        = 0.40 // report batch
	pVerdict     = 0.80 // fused verdict
	pSimilar     = 0.90 // near-duplicates
	pFingerprint = 0.95 // fingerprint upload
	//                 rest: timeline

	batchEvents = 16   // events per report batch
	probeEvery  = 20   // one report op in probeEvery is a detection probe
	pDuplicate  = 0.05 // share of events that resend a recent acked one
	recentKeep  = 256  // acked events a client may resend

	// In a traced run one operation in tracedShare goes straight to the
	// Store and, on federated-mix, one more to the Router in-process, so
	// each layer's own time can be subtracted from the client's. Both
	// windows of a traced run divert these shares.
	tracedShare = 5

	checkApps = 64 // apps whose answers the replay check compares

	// probeReports is the store's default verdict threshold: a probe
	// app's verdict flips on its last report.
	probeReports = 3
)

var opNames = []string{"ingest", "verdict", "similar", "fingerprint", "timeline"}

// tailOps are the operation types whose p95 is an end-to-end metric.
var tailOps = []string{"ingest", "verdict"}

// mixNode is one marketd node: a store on a counting filesystem behind
// its own loopback HTTP server.
type mixNode struct {
	cfg market.Config
	st  *market.Store
	srv *loopback
}

// mixSys is the market under test: one node, or three nodes behind a
// router whose HTTP front the clients use.
type mixSys struct {
	fed    bool
	c      *corpus
	fs     *countingFS
	nodes  []*mixNode
	router *cluster.Router
	front  *loopback // the router's front on federated-mix
	url    string    // what clients talk to
	rc     *http.Client
}

func (s *mixSys) close() {
	if s.front != nil {
		s.front.close()
	}
	if s.rc != nil {
		s.rc.CloseIdleConnections()
	}
	for _, n := range s.nodes {
		if n.srv != nil {
			n.srv.close()
		}
		if n.st != nil {
			n.st.Close()
		}
	}
}

// owner is the node that owns a key's slot.
func (s *mixSys) owner(key string) *mixNode {
	slot := market.Slot(key, market.DefaultSlots)
	for _, n := range s.nodes {
		if n.cfg.Range.IsZero() || n.cfg.Range.Contains(slot) {
			return n
		}
	}
	return s.nodes[0]
}

// nodeRanges splits the slot space into three contiguous thirds.
func nodeRanges() []market.ShardRange {
	n := market.DefaultSlots
	return []market.ShardRange{{Lo: 0, Hi: n / 3}, {Lo: n / 3, Hi: 2 * n / 3}, {Lo: 2 * n / 3, Hi: n}}
}

// setupMix builds a seeded market: open, seed every fingerprint and
// the seed reports through the Store API, close (shutdown checkpoint),
// reopen (checkpoint load and WAL recovery), then serve over HTTP.
func setupMix(ctx context.Context, dir string, fed bool, c *corpus) (s *mixSys, seedS, restartMs float64, err error) {
	s = &mixSys{fed: fed, c: c, fs: newCountingFS()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if fed {
		for i, r := range nodeRanges() {
			s.nodes = append(s.nodes, &mixNode{cfg: market.Config{
				Dir: filepath.Join(dir, fmt.Sprintf("node-%d", i+1)), NodeID: fmt.Sprintf("n%d", i+1), Range: r, FS: s.fs}})
		}
	} else {
		s.nodes = []*mixNode{{cfg: market.Config{Dir: filepath.Join(dir, "node"), FS: s.fs}}}
	}
	t0 := time.Now()
	for _, n := range s.nodes {
		if n.st, _, err = market.Open(n.cfg); err != nil {
			return s, 0, 0, err
		}
	}
	if err := seedMarket(ctx, c, func(fp market.Fingerprint) error {
		_, err := s.owner(fp.App).st.PutFingerprint(fp)
		return err
	}, func(evs []report.Event) error {
		parts := map[*mixNode][]report.Event{}
		for _, ev := range evs {
			n := s.owner(ev.Key())
			parts[n] = append(parts[n], ev)
		}
		for n, p := range parts {
			if _, _, err := n.st.Ingest(p); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return s, 0, 0, err
	}
	for _, n := range s.nodes {
		err := n.st.Close()
		n.st = nil
		if err != nil {
			return s, 0, 0, err
		}
	}
	t1 := time.Now()
	for _, n := range s.nodes {
		if n.st, _, err = market.Open(n.cfg); err != nil {
			return s, 0, 0, err
		}
	}
	t2 := time.Now()
	var urls []string
	for _, n := range s.nodes {
		if n.srv, err = serve(market.NewHandler(n.st)); err != nil {
			return s, 0, 0, err
		}
		urls = append(urls, n.srv.url)
	}
	s.url = urls[0]
	if fed {
		s.rc = &http.Client{Transport: countingTransport{base: &http.Transport{MaxIdleConnsPerHost: workers}}}
		if s.router, err = cluster.New(ctx, cluster.Config{Nodes: urls, HTTPClient: s.rc}); err != nil {
			return s, 0, 0, err
		}
		if s.front, err = serve(cluster.NewHandler(s.router)); err != nil {
			return s, 0, 0, err
		}
		s.url = s.front.url
	}
	return s, t1.Sub(t0).Seconds(), float64(t2.Sub(t1).Microseconds()) / 1e3, nil
}

// seedMarket writes the corpus's fingerprints and seed reports with
// two writers, the way the clients later load the market.
func seedMarket(ctx context.Context, c *corpus, putFP func(market.Fingerprint) error, ingest func([]report.Event) error) error {
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(c.apps) && errs[w] == nil; i += workers {
				errs[w] = putFP(c.fingerprint(c.apps[i]))
			}
			const batch = 512
			for lo := w * batch; lo < len(c.seedEvs) && errs[w] == nil; lo += workers * batch {
				errs[w] = ingest(c.seedEvs[lo:min(lo+batch, len(c.seedEvs))])
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// write is one acked write, kept for the replay check.
type write struct {
	Evs []report.Event      `json:"evs,omitempty"`
	FP  *market.Fingerprint `json:"fp,omitempty"`
}

// spillAt is how many acked writes a client keeps in memory before it
// appends them to its log file, so the log does not count in heap_mb.
const spillAt = 256

func (m *mixClient) logPath() string {
	return filepath.Join(m.logDir, fmt.Sprintf("writes-%d.ndjson", m.id))
}

// spill appends the client's acked writes to its log file and forgets
// them.
func (m *mixClient) spill() error {
	f, err := os.OpenFile(m.logPath(), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, w := range m.log {
		if err := enc.Encode(w); err != nil {
			f.Close()
			return err
		}
	}
	m.log = nil
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mixClient is one closed-loop client. It owns every fingerprint write
// for the apps of its parity, so the per-app order of fingerprint
// writes is its own order and the serial replay reproduces it.
type mixClient struct {
	id      int
	r       *rand.Rand
	sys     *mixSys
	cl      *market.Client
	fps     map[string][]string // current fingerprints of the apps it owns
	recent  []report.Event
	user    int
	clockMs int64
	fpSeq   int
	probes  int
	counts  [5]int // operations issued per type, for the traced shares
	log     []write
	logDir  string
	retries int64
	out     runOut
	// divert sends a share of the operations straight to the Store or
	// the Router (see tracedShare).
	divert bool
}

// sliceLen divides a measured window into slices for counting
// throughput; ops_per_s is the median of the per-slice rates.
const sliceLen = time.Second

// mixAcc is what one client measures in one window.
type mixAcc struct {
	from      time.Time // start of the measured window
	slices    []int64   // operations started per slice
	lat       opSamples // over HTTP, by operation type
	store     opSamples // direct Store calls (traced)
	router    opSamples // in-process Router calls (traced, federated)
	nodeMax   opSamples // slowest direct node call per operation (traced, federated)
	serverAck samples
	detect    samples // detection probes: first report to flagged verdict
	nodeReqs  map[string]int64
	routerOps map[string]int64
	ops       int64
	events    int64
}

func newMixAcc(from time.Time) *mixAcc {
	return &mixAcc{from: from, lat: opSamples{}, store: opSamples{}, router: opSamples{}, nodeMax: opSamples{},
		nodeReqs: map[string]int64{}, routerOps: map[string]int64{}}
}

func (a *mixAcc) countOp(t time.Time) {
	i := int(t.Sub(a.from) / sliceLen)
	for len(a.slices) <= i {
		a.slices = append(a.slices, 0)
	}
	a.slices[i]++
}

func (a *mixAcc) merge(b *mixAcc) {
	for i, n := range b.slices {
		for len(a.slices) <= i {
			a.slices = append(a.slices, 0)
		}
		a.slices[i] += n
	}
	a.lat.merge(b.lat)
	a.store.merge(b.store)
	a.router.merge(b.router)
	a.nodeMax.merge(b.nodeMax)
	a.serverAck = append(a.serverAck, b.serverAck...)
	a.detect = append(a.detect, b.detect...)
	for k, v := range b.nodeReqs {
		a.nodeReqs[k] += v
	}
	for k, v := range b.routerOps {
		a.routerOps[k] += v
	}
	a.ops += b.ops
	a.events += b.events
}

var retry = market.RetryPolicy{MaxAttempts: 20}

// step issues one operation. acc is nil during the warm-up.
func (m *mixClient) step(ctx context.Context, acc *mixAcc, tr *tracer) {
	x := m.r.Float64()
	app := m.sys.c.apps[m.sys.c.appZipf(m.r)]
	var op int
	switch {
	case x < pPost:
		op = 0
	case x < pVerdict:
		op = 1
	case x < pSimilar:
		op = 2
	case x < pFingerprint:
		op = 3
	default:
		op = 4
	}
	path := "http"
	if m.divert {
		switch m.counts[op] % tracedShare {
		case 0:
			path = "store"
		case 1:
			if m.sys.fed && op <= 2 {
				path = "router"
			}
		}
	}
	m.counts[op]++
	opID := tr.id()
	t0 := time.Now()
	var err error
	probe := op == 0 && m.counts[0]%probeEvery == probeEvery-1
	if probe {
		path = "http"
	}
	switch {
	case probe:
		err = m.probe(ctx, acc, tr, opID)
	case op == 0:
		err = m.post(ctx, acc, tr, opID, path)
	case op == 1:
		err = m.verdict(ctx, acc, tr, opID, path, app)
	case op == 2:
		err = m.similar(ctx, acc, tr, opID, path, app)
	case op == 3:
		err = m.putFingerprint(ctx, acc, tr, opID, path)
	default:
		err = m.timeline(ctx, acc, tr, opID, path, app)
	}
	t1 := time.Now()
	name := opNames[op]
	if probe {
		name = "probe"
	}
	tr.record(opID, 0, opID, name+" via "+path, layerBench, t0, t1)
	m.out.attempted++
	if err != nil {
		m.out.fail("client %d %s (%s): %v", m.id, opNames[op], path, err)
	}
	if acc != nil {
		acc.ops++
		acc.countOp(t0)
		switch {
		case probe:
			acc.detect.add(t1.Sub(t0))
		case path == "http":
			acc.lat.add(opNames[op], t1.Sub(t0))
		}
	}
}

// probe is the market's half of the detection loop: a fresh pirate
// app's devices each report one detonation, one POST per report as
// report.HTTPSink sends them, and the app's fused verdict must flip
// once the threshold is reached.
func (m *mixClient) probe(ctx context.Context, acc *mixAcc, tr *tracer, op int64) error {
	m.probes++
	app := fmt.Sprintf("com.bench.probe-c%d-%d", m.id, m.probes)
	for i := 0; i < probeReports; i++ {
		m.clockMs++
		ev := []report.Event{{App: app, Bomb: fmt.Sprintf("bomb-%d", i), User: fmt.Sprintf("c%d-probe-%d", m.id, m.probes),
			TimeMs: m.clockMs, Info: "probe"}}
		var res market.PostResult
		_, err := retry.Do(ctx, func(ctx context.Context) error {
			_, err := timedCall(tr, op, "market.Client.Reports.Post", layerMarket, func() error {
				var err error
				res, err = m.cl.Reports().Post(ctx, ev)
				return err
			})
			return err
		})
		if err != nil {
			return err
		}
		m.log = append(m.log, write{Evs: ev})
		if res.Accepted != 1 {
			return fmt.Errorf("probe report ack %+v", res)
		}
		if acc != nil {
			acc.events++
		}
	}
	var v market.Verdict
	_, err := timedCall(tr, op, "market.Client.Verdicts.Get", layerMarket, func() error {
		var err error
		v, err = m.cl.Verdicts().Get(ctx, app)
		return err
	})
	if err == nil && !v.Flagged {
		err = fmt.Errorf("probe %s not flagged after %d reports: %+v", app, probeReports, v)
	}
	return err
}

// timedCall times f as a span of layer under the operation's root.
func timedCall(tr *tracer, op int64, name, layer string, f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	tr.record(tr.id(), op, op, name, layer, t0, t1)
	return t1.Sub(t0), err
}

func (m *mixClient) newBatch() (evs []report.Event, dups int) {
	for i := 0; i < batchEvents; i++ {
		if len(m.recent) > 0 && m.r.Float64() < pDuplicate {
			evs = append(evs, m.recent[m.r.Intn(len(m.recent))])
			dups++
			continue
		}
		m.user++
		m.clockMs += int64(1 + m.r.Intn(1000))
		evs = append(evs, report.Event{
			App:    m.sys.c.apps[m.sys.c.appZipf(m.r)],
			Bomb:   fmt.Sprintf("bomb-%d", m.r.Intn(16)),
			User:   fmt.Sprintf("c%d-u%d", m.id, m.user),
			TimeMs: m.clockMs,
			Info:   "mix",
		})
	}
	return evs, dups
}

func (m *mixClient) post(ctx context.Context, acc *mixAcc, tr *tracer, op int64, path string) error {
	evs, dups := m.newBatch()
	var accepted, duplicates int
	var err error
	switch path {
	case "http":
		var res market.PostResult
		var rs market.RetryStats
		rs, err = retry.Do(ctx, func(ctx context.Context) error {
			_, err := timedCall(tr, op, "market.Client.Reports.Post", layerMarket, func() error {
				var err error
				res, err = m.cl.Reports().Post(ctx, evs)
				return err
			})
			return err
		})
		m.retries += int64(rs.Retries429)
		accepted, duplicates = res.Accepted, res.Duplicates
		if err == nil && acc != nil && tr != nil {
			acc.serverAck = append(acc.serverAck, m.cl.ServerUs()*1000)
		}
	case "store":
		parts := map[*mixNode][]report.Event{}
		for _, ev := range evs {
			n := m.sys.owner(ev.Key())
			parts[n] = append(parts[n], ev)
		}
		var slowest time.Duration
		for _, n := range m.sys.nodes {
			if len(parts[n]) == 0 {
				continue
			}
			var a, d int
			dur, e := timedCall(tr, op, "market.Store.Ingest", layerMarket, func() error {
				var err error
				a, d, err = n.st.Ingest(parts[n])
				return err
			})
			if e != nil {
				err = e
			}
			accepted, duplicates = accepted+a, duplicates+d
			slowest = max(slowest, dur)
			if acc != nil {
				acc.store.add("ingest", dur)
			}
		}
		if acc != nil && m.sys.fed {
			acc.nodeMax.add("ingest", slowest)
		}
	case "router":
		var n atomic.Int64
		var ack cluster.Ack
		dur, e := timedCall(tr, op, "cluster.Router.PostCtx", layerCluster, func() error {
			var err error
			ack, err = m.sys.router.PostCtx(withReqCounter(ctx, &n), evs)
			return err
		})
		err = e
		accepted, duplicates = ack.Accepted, ack.Duplicates
		if acc != nil {
			acc.router.add("ingest", dur)
			acc.nodeReqs["ingest"] += n.Load()
			acc.routerOps["ingest"]++
		}
	}
	if err != nil {
		return err
	}
	m.log = append(m.log, write{Evs: evs})
	if acc != nil {
		acc.events += int64(len(evs))
	}
	if accepted != len(evs)-dups || duplicates != dups {
		return fmt.Errorf("ack accepted=%d duplicates=%d, want %d and %d", accepted, duplicates, len(evs)-dups, dups)
	}
	for _, ev := range evs {
		if len(m.recent) < recentKeep {
			m.recent = append(m.recent, ev)
		} else {
			m.recent[m.r.Intn(recentKeep)] = ev
		}
	}
	return nil
}

func (m *mixClient) verdict(ctx context.Context, acc *mixAcc, tr *tracer, op int64, path, app string) error {
	var v market.Verdict
	var err error
	switch path {
	case "http":
		_, err = timedCall(tr, op, "market.Client.Verdicts.Get", layerMarket, func() error {
			var err error
			v, err = m.cl.Verdicts().Get(ctx, app)
			return err
		})
	case "store":
		var slowest time.Duration
		for _, n := range m.sys.nodes {
			dur, _ := timedCall(tr, op, "market.Store.Verdict", layerMarket, func() error {
				nv := n.st.Verdict(app)
				if n == m.sys.owner(app) {
					v = nv
				}
				return nil
			})
			slowest = max(slowest, dur)
			if acc != nil && n == m.sys.owner(app) {
				acc.store.add("verdict", dur)
			}
		}
		if acc != nil && m.sys.fed {
			acc.nodeMax.add("verdict", slowest)
		}
	case "router":
		var n atomic.Int64
		dur, e := timedCall(tr, op, "cluster.Router.VerdictCtx", layerCluster, func() error {
			var err error
			v, err = m.sys.router.VerdictCtx(withReqCounter(ctx, &n), app)
			return err
		})
		err = e
		if acc != nil {
			acc.router.add("verdict", dur)
			acc.nodeReqs["verdict"] += n.Load()
			acc.routerOps["verdict"]++
		}
	}
	if err == nil && v.App != app {
		err = fmt.Errorf("verdict answered for %q, asked %q", v.App, app)
	}
	return err
}

func (m *mixClient) similar(ctx context.Context, acc *mixAcc, tr *tracer, op int64, path, app string) error {
	var s market.Similar
	var err error
	switch path {
	case "http":
		_, err = timedCall(tr, op, "market.Client.Fingerprints.Similar", layerMarket, func() error {
			var err error
			s, err = m.cl.Fingerprints().Similar(ctx, app)
			return err
		})
	case "store":
		owner := m.sys.owner(app)
		dur, e := timedCall(tr, op, "market.Store.Similar", layerMarket, func() error {
			var err error
			s, err = owner.st.Similar(app)
			return err
		})
		err = e
		if acc != nil {
			acc.store.add("similar", dur)
			if m.sys.fed {
				acc.nodeMax.add("similar", dur)
			}
		}
	case "router":
		var n atomic.Int64
		dur, e := timedCall(tr, op, "cluster.Router.SimilarCtx", layerCluster, func() error {
			var err error
			s, err = m.sys.router.SimilarCtx(withReqCounter(ctx, &n), app)
			return err
		})
		err = e
		if acc != nil {
			acc.router.add("similar", dur)
			acc.nodeReqs["similar"] += n.Load()
			acc.routerOps["similar"]++
		}
	}
	if err == nil && (s.App != app || !s.Known) {
		err = fmt.Errorf("similar answered app=%q known=%v for %q", s.App, s.Known, app)
	}
	return err
}

// putFingerprint uploads a changed fingerprint for an app this client
// owns: one of its own digests replaced by a fresh one, so the corpus
// keeps its shape.
func (m *mixClient) putFingerprint(ctx context.Context, acc *mixAcc, tr *tracer, op int64, path string) error {
	k := m.sys.c.appZipf(m.r)
	if k%workers != m.id {
		k = k - k%workers + m.id
	}
	app := m.sys.c.apps[k]
	cur := m.fps[app]
	if cur == nil {
		cur = m.sys.c.fps[app]
	}
	own := ownDigests(cur, m.sys.c.lib)
	m.fpSeq++
	drop := own[m.r.Intn(len(own))]
	var next []string
	for _, d := range cur {
		if d != drop {
			next = append(next, d)
		}
	}
	next = canonical(append(next, digest("update", m.id, m.fpSeq)))
	fp := market.Fingerprint{App: app, Digests: next}
	var ack market.FingerprintAck
	var err error
	switch path {
	case "http":
		var rs market.RetryStats
		rs, err = retry.Do(ctx, func(ctx context.Context) error {
			_, err := timedCall(tr, op, "market.Client.Fingerprints.Put", layerMarket, func() error {
				var err error
				ack, err = m.cl.Fingerprints().Put(ctx, fp)
				return err
			})
			return err
		})
		m.retries += int64(rs.Retries429)
	default:
		dur, e := timedCall(tr, op, "market.Store.PutFingerprint", layerMarket, func() error {
			var err error
			ack, err = m.sys.owner(app).st.PutFingerprint(fp)
			return err
		})
		err = e
		if acc != nil {
			acc.store.add("fingerprint", dur)
		}
	}
	if err != nil {
		return err
	}
	m.fps[app] = next
	m.log = append(m.log, write{FP: &fp})
	if ack.App != app || ack.Entries != len(next) || !ack.Updated {
		return fmt.Errorf("fingerprint ack %+v, want %d entries updated", ack, len(next))
	}
	return nil
}

func (m *mixClient) timeline(ctx context.Context, acc *mixAcc, tr *tracer, op int64, path, app string) error {
	var tl market.Timeline
	var err error
	switch path {
	case "http":
		_, err = timedCall(tr, op, "market.Client.Timelines.Get", layerMarket, func() error {
			var err error
			tl, err = m.cl.Timelines().Get(ctx, app)
			return err
		})
	default:
		owner := m.sys.owner(app)
		dur, _ := timedCall(tr, op, "market.Store.Timeline", layerMarket, func() error {
			tl = owner.st.Timeline(app)
			return nil
		})
		if acc != nil {
			acc.store.add("timeline", dur)
		}
		if m.sys.fed {
			tl.App = app // a node's local timeline is only its part
		}
	}
	if err == nil && tl.App != app {
		err = fmt.Errorf("timeline answered for %q, asked %q", tl.App, app)
	}
	return err
}

// mixWindow runs the two clients in a closed loop: a warm-up whose
// samples are discarded, then the measured window.
func mixWindow(ctx context.Context, clients []*mixClient, warm, length time.Duration, tr *tracer) *mixAcc {
	accs := make([]*mixAcc, len(clients))
	start := time.Now()
	measureFrom := start.Add(warm)
	end := measureFrom.Add(length)
	var wg sync.WaitGroup
	for i, m := range clients {
		accs[i] = newMixAcc(measureFrom)
		wg.Add(1)
		go func(m *mixClient, acc *mixAcc) {
			defer wg.Done()
			for ctx.Err() == nil {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				if now.Before(measureFrom) {
					m.step(ctx, nil, tr)
				} else {
					m.step(ctx, acc, tr)
				}
				if len(m.log) >= spillAt {
					if err := m.spill(); err != nil {
						m.out.fail("client %d: write log: %v", m.id, err)
					}
				}
			}
		}(m, accs[i])
	}
	wg.Wait()
	total := newMixAcc(measureFrom)
	for _, a := range accs {
		total.merge(a)
	}
	return total
}

func runMix(ctx context.Context, e *env, fed bool) (*runOut, error) {
	out := &runOut{e2e: map[string]float64{}, layer: map[string]float64{}}
	c := genCorpus(e.seed)
	if b, err := json.Marshal(shape); err == nil {
		fmt.Fprintf(os.Stderr, "corpus (seed %d): %s; most common library digest in %.2f%% of apps\n",
			e.seed, b, 100*c.topLibraryShare())
	}
	var sys *mixSys
	defer func() {
		if sys != nil {
			sys.close()
		}
	}()
	var seedS, restartMs []float64
	n := 0
	setupS, err := measureSetup(func() error {
		n++
		s, seed, restart, err := setupMix(ctx, filepath.Join(e.dataDir, fmt.Sprintf("setup-%d", n)), fed, c)
		if err != nil {
			return err
		}
		sys = s
		seedS, restartMs = append(seedS, seed), append(restartMs, restart)
		return nil
	}, func() {
		sys.close()
		sys = nil
	})
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setupS
	out.layer["market.seed_s"] = median(seedS)
	out.layer["market.restart_ms"] = median(restartMs)

	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	clients := make([]*mixClient, workers)
	for i := range clients {
		// A traced run diverts the same shares in its untraced window as
		// in its traced one, so bench.trace_overhead_pct compares HTTP
		// latencies under the same load.
		clients[i] = &mixClient{id: i, r: rand.New(rand.NewSource(e.seed*7919 + int64(i) + 1)), sys: sys,
			cl: &market.Client{BaseURL: sys.url, HTTPClient: hc}, fps: map[string][]string{}, logDir: e.dataDir, divert: e.trace}
	}

	gc := startGC()
	heap := sampleHeap()
	acc := mixWindow(ctx, clients, e.warm, e.window, nil)
	out.e2e["heap_mb"] = heap.medianFrom(acc.from)
	gc.stop(out.layer)
	for _, m := range clients {
		if err := m.spill(); err != nil {
			return nil, err
		}
	}
	var rates []float64
	for _, n := range acc.slices {
		rates = append(rates, float64(n)/sliceLen.Seconds())
	}
	out.e2e["ops_per_s"] = median(rates)
	out.e2e["detect_s"] = acc.detect.ms(0.5) / 1e3
	for _, op := range opNames {
		out.e2e[op+"_p50_ms"] = acc.lat.get(op).ms(0.5)
	}
	for _, op := range tailOps {
		out.e2e[op+"_p95_ms"] = acc.lat.get(op).ms(0.95)
	}
	printCounts(acc.lat)
	if e.trace {
		out.tr = newTracer()
		for _, m := range clients {
			m.cl.Trace = true
			m.retries = 0
		}
		fs0 := sys.fs.snapshot()
		tacc := mixWindow(ctx, clients, e.warm, e.window, out.tr)
		fsd := sys.fs.snapshot().sub(fs0)
		for _, m := range clients {
			if err := m.spill(); err != nil {
				return nil, err
			}
		}
		mixLayers(out.layer, acc, tacc, fsd, clients, fed)
		mirrorSimilarity(c.fps, c.lib, out.layer, out.tr)
	}

	// Replay every acked write serially into a fresh reference store and
	// compare answers byte for byte.
	for _, m := range clients {
		out.attempted += m.out.attempted
		out.failed += m.out.failed
		out.problems = append(out.problems, m.out.problems...)
	}
	if err := replayCheck(ctx, e.seed, sys, c, clients, hc, out); err != nil {
		return nil, err
	}
	return out, nil
}

// mixLayers fills the per-layer metrics from the untraced window (u)
// and the traced one (t).
func mixLayers(l map[string]float64, u, t *mixAcc, fsd fsCounts, clients []*mixClient, fed bool) {
	l["market.store.ingest_ms"] = t.store.get("ingest").ms(0.5)
	for _, op := range []string{"verdict", "similar", "fingerprint", "timeline"} {
		l["market.store."+op+"_us"] = t.store.get(op).us(0.5)
	}
	for _, op := range opNames {
		l["market.http_overhead."+op+"_ms"] = t.lat.get(op).ms(0.5) - t.store.get(op).ms(0.5)
	}
	l["market.server_ack_ms"] = t.serverAck.ms(0.5)
	kev := float64(t.events) / 1000
	l["market.fs.syncs_per_kevent"] = ratio(float64(fsd.syncs), kev)
	l["market.fs.bytes_per_event"] = ratio(float64(fsd.bytes), float64(t.events))
	l["market.fs.checkpoints"] = float64(fsd.ckpts)
	var retries int64
	for _, m := range clients {
		retries += m.retries
	}
	l["market.retries_429"] = float64(retries)
	var ratios float64
	for _, op := range opNames {
		ratios += ratio(t.lat.get(op).quantile(0.5), u.lat.get(op).quantile(0.5))
	}
	l["bench.trace_overhead_pct"] = 100 * (ratios/float64(len(opNames)) - 1)
	if !fed {
		return
	}
	for _, op := range []string{"ingest", "verdict", "similar"} {
		name := op
		if op == "ingest" {
			name = "post"
		}
		l["cluster."+name+"_ms"] = t.router.get(op).ms(0.5)
		l["cluster.fanout_overhead."+name+"_ms"] = t.router.get(op).ms(0.5) - t.nodeMax.get(op).ms(0.5)
		l["cluster.node_requests_per_"+name] = ratio(float64(t.nodeReqs[op]), float64(t.routerOps[op]))
	}
	l["cluster.front_overhead_ms"] = t.lat.get("verdict").ms(0.5) - t.router.get("verdict").ms(0.5)
}

// replayCheck rebuilds the market from the seed corpus plus every
// acked write, serially, in an in-memory reference store, and requires
// the live HTTP answers for a fixed app sample to be byte-identical to
// the reference's.
func replayCheck(ctx context.Context, seed int64, sys *mixSys, c *corpus, clients []*mixClient, hc *http.Client, out *runOut) error {
	ref, _, err := market.Open(market.Config{Dir: "/ref", FS: marketfs.NewFault(nil, seed)})
	if err != nil {
		return err
	}
	defer ref.Close()
	if err := seedMarket(ctx, c, func(fp market.Fingerprint) error {
		_, err := ref.PutFingerprint(fp)
		return err
	}, func(evs []report.Event) error {
		_, _, err := ref.Ingest(evs)
		return err
	}); err != nil {
		return err
	}
	for _, m := range clients {
		f, err := os.Open(m.logPath())
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bufio.NewReader(f))
		for {
			var w write
			if err := dec.Decode(&w); err == io.EOF {
				break
			} else if err != nil {
				f.Close()
				return fmt.Errorf("replay log: %w", err)
			}
			if w.FP != nil {
				_, err = ref.PutFingerprint(*w.FP)
			} else {
				_, _, err = ref.Ingest(w.Evs)
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("replay: %w", err)
			}
		}
		f.Close()
	}
	refH := market.NewHandler(ref)
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	sample := map[string]bool{}
	for len(sample) < checkApps/2 {
		sample[c.apps[c.appZipf(r)]] = true
	}
	for len(sample) < checkApps {
		sample[c.apps[r.Intn(shape.Families*shape.FamilySize)]] = true
	}
	for _, app := range sortedKeys(sample) {
		for _, route := range []string{"verdict", "timeline", "similar"} {
			path := "/v1/apps/" + url.PathEscape(app) + "/" + route
			out.attempted++
			live, err := httpGet(ctx, hc, sys.url+path)
			if err != nil {
				out.fail("check %s: %v", path, err)
				continue
			}
			rec := httptest.NewRecorder()
			refH.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if sys.fed && route == "timeline" && !bytes.Equal(live, rec.Body.Bytes()) {
				capped, err := cappedTimelinesAgree(live, rec.Body.Bytes())
				if err != nil {
					out.fail("check %s: %v", path, err)
				}
				if capped {
					out.cappedTimelines++
					continue
				}
			}
			if !bytes.Equal(live, rec.Body.Bytes()) {
				out.fail("check %s: live answer differs from serial replay: %s", path, firstDiff(live, rec.Body.Bytes()))
			}
		}
	}
	return nil
}

func httpGet(ctx context.Context, hc *http.Client, u string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("status %s", resp.Status)
	}
	return b, err
}

// firstDiff describes where two answers first differ.
func firstDiff(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(0, i-60)
	return fmt.Sprintf("byte %d of %d/%d: live …%s… ref …%s…", i, len(a), len(b),
		a[lo:min(len(a), i+60)], b[lo:min(len(b), i+60)])
}

// cappedTimelinesAgree compares a federated timeline with the
// single-node reference when either side's per-shard TimelineCap
// evicted entries. Retention is per (shard, app), and three nodes of
// four shards keep more entries than one node of four, so the retained
// middle and the evicted count legitimately differ; DESIGN.md §16
// promises only the head through the threshold crossing and the final
// counts in that case, and those must agree. capped reports whether
// the case applied.
func cappedTimelinesAgree(live, ref []byte) (capped bool, err error) {
	var l, r market.Timeline
	if err := json.Unmarshal(live, &l); err != nil {
		return false, err
	}
	if err := json.Unmarshal(ref, &r); err != nil {
		return false, err
	}
	if l.Evicted == 0 && r.Evicted == 0 {
		return false, nil
	}
	head := func(t market.Timeline) []market.TimelineEntry {
		for i, e := range t.Entries {
			if e.Kind == "threshold" {
				return t.Entries[:i+1]
			}
		}
		return t.Entries
	}
	if l.App != r.App || l.Threshold != r.Threshold || l.Detections != r.Detections ||
		l.Repackaged != r.Repackaged || l.TimeToVerdictMs != r.TimeToVerdictMs ||
		!reflect.DeepEqual(head(l), head(r)) {
		return true, fmt.Errorf("capped timeline head or totals differ: %s", firstDiff(live, ref))
	}
	return true, nil
}
