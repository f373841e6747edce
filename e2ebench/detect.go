package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"bombdroid/internal/chaos"
	"bombdroid/internal/market"
	"bombdroid/internal/report"
	"bombdroid/internal/sim"
)

// Campaign shape: waves of waveSessions user sessions, each capped at
// waveCapMs of virtual play, run on a pirated app until its fused
// verdict flips. Waves differ only in their seed.
const (
	waveSessions = 10
	waveCapMs    = 20 * 60_000
	maxWaves     = 60
	// campaignSeed fixes every campaign: how many waves a rare bomb
	// needs varies several-fold with the seed, which would swamp any
	// change to the code, so protect-detect runs the same inputs (the
	// eight named apps, the same users) whatever the workload seed.
	campaignSeed = 7
	workers      = 2 // client goroutines: nproc on the reference box
)

// loopback is an HTTP server on 127.0.0.1 whose close waits for its
// serving goroutine.
type loopback struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &loopback{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(l.done)
		l.srv.Serve(ln)
	}()
	return l, nil
}

func (l *loopback) close() {
	l.srv.Shutdown(context.Background())
	<-l.done
}

// newHTTPClient is the load side's transport: at most `workers` kept
// connections per host, like the closed-loop clients that use it.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers}}
}

// swapHandler serves whichever market store the current round opened.
type swapHandler struct{ cur atomic.Pointer[http.Handler] }

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.cur.Load()).ServeHTTP(w, r)
}

func (s *swapHandler) set(h http.Handler) { s.cur.Store(&h) }

// pdAcc is one worker's share of a window. Workers own their
// accumulators, so nothing here is locked.
type pdAcc struct {
	out          runOut
	lat          opSamples
	campaignNs   int64 // RunChaos wall time minus time in the sink
	sessions     int64
	events       int64
	instructions int64
	attempts     int64 // pipeline delivery attempts
	delivered    int64
	detectNs     map[string]int64 // per app: its first campaign to its verdict flip
}

func newAcc() *pdAcc { return &pdAcc{lat: opSamples{}, detectNs: map[string]int64{}} }

// detector runs the detection loop against an in-process marketd.
type detector struct {
	apps    []*protectedApp
	dataDir string
	front   *swapHandler
	srv     *loopback
	hc      *http.Client
	cl      *market.Client
	rounds  int
	ttv     map[string]int64 // time_to_verdict_ms of the first round
}

func runProtectDetect(ctx context.Context, e *env) (*runOut, error) {
	out := &runOut{e2e: map[string]float64{}, layer: map[string]float64{}}
	if e.trace {
		// The traced run records the first, in-process set-up's protection
		// spans, so the span file shows where set-up time goes.
		out.tr = newTracer()
	}
	// The first set-up runs in this process and its apps are the ones
	// measured; exp caches them, so the other set-ups each run in a
	// fresh child process.
	first, err := protectAll(ctx, out.tr)
	if err != nil {
		return nil, err
	}
	sets := []*protection{first}
	for len(sets) < setupRepeats {
		p, err := protectInChild(ctx)
		if err != nil {
			return nil, err
		}
		sets = append(sets, p)
	}
	med := func(f func(*protection) float64) float64 {
		var xs []float64
		for _, p := range sets {
			xs = append(xs, f(p))
		}
		return median(xs)
	}
	for _, p := range sets {
		fmt.Fprintf(os.Stderr, "protect-detect: set-up %.3f s\n", p.Seconds)
	}
	out.e2e["setup_s"] = med(func(p *protection) float64 { return p.Seconds })
	out.layer["core.protect_ms"] = med(func(p *protection) float64 { return p.StageMs })
	out.layer["core.stage.profile_ms"] = med(func(p *protection) float64 { return p.ProfileMs })
	out.layer["core.stage.construct_ms"] = med(func(p *protection) float64 { return p.ConstructMs })
	apps := first.apps

	d := &detector{apps: apps, dataDir: e.dataDir, front: &swapHandler{},
		hc: newHTTPClient(), ttv: map[string]int64{}}
	d.front.set(http.NotFoundHandler())
	if d.srv, err = serve(d.front); err != nil {
		return nil, err
	}
	defer d.srv.close()
	defer d.hc.CloseIdleConnections()
	d.cl = &market.Client{BaseURL: d.srv.url, HTTPClient: d.hc}

	gc := startGC()
	heap := sampleHeap()
	w, err := d.window(ctx, e.window, nil)
	if err != nil {
		return nil, err
	}
	out.e2e["heap_mb"] = heap.medianFrom(w.from)
	gc.stop(out.layer)
	w.report(out)
	fmt.Fprintf(os.Stderr, "protect-detect: %d rounds of %.3f s\n", len(w.rounds), w.busy)
	if e.trace {
		tw, err := d.window(ctx, e.window, out.tr)
		if err != nil {
			return nil, err
		}
		out.layer["bench.trace_overhead_pct"] = 100 * (tw.detectS()/w.detectS() - 1)
		tw.checks(out)
		tw.layers(out.layer)
		mirrorSimilarity(pirateFingerprints(apps), nil, out.layer, out.tr)
	}
	return out, nil
}

func pirateFingerprints(apps []*protectedApp) map[string][]string {
	fps := map[string][]string{}
	for _, a := range apps {
		fps[a.pirated.Name] = fingerprintOf(a, nil, 0, 0)
	}
	return fps
}

// fingerprintOf is the market fingerprint of a pirated copy: its
// manifest's entry digests.
func fingerprintOf(a *protectedApp, tr *tracer, op, parent int64) []string {
	t0 := time.Now()
	var ds []string
	for _, ed := range a.pirated.Manifest.SortedDigests() {
		ds = append(ds, ed.Digest)
	}
	tr.record(tr.id(), parent, op, "apk.Manifest.SortedDigests", layerAPK, t0, time.Now())
	return ds
}

// pdWindow is one measured window of detection rounds.
type pdWindow struct {
	acc    *pdAcc   // every measured round
	rounds []*pdAcc // each measured round on its own
	warm   *pdAcc   // the discarded round: its checks still count
	busy   []float64
	from   time.Time // end of the discarded round
}

// detectS is the median over the rounds of the time from a round's
// first campaign to its last verdict flip. The apps run one after
// another, so a round's time is the sum of its apps' times.
func (w *pdWindow) detectS() float64 {
	var xs []float64
	for _, r := range w.rounds {
		var ns int64
		for _, d := range r.detectNs {
			ns += d
		}
		xs = append(xs, float64(ns)/1e9)
	}
	return median(xs)
}

// window runs one discarded warm-up round, then detection rounds until
// the window has elapsed (at least three). Rounds that start inside
// the window run to completion.
func (d *detector) window(ctx context.Context, length time.Duration, tr *tracer) (*pdWindow, error) {
	w := &pdWindow{acc: newAcc(), warm: newAcc()}
	if _, err := d.round(ctx, w.warm, tr); err != nil {
		return nil, err
	}
	w.from = time.Now()
	end := w.from.Add(length)
	for len(w.rounds) < 3 || time.Now().Before(end) {
		acc := newAcc()
		total, err := d.round(ctx, acc, tr)
		if err != nil {
			return nil, err
		}
		w.rounds = append(w.rounds, acc)
		w.busy = append(w.busy, total.Seconds())
		w.acc.merge(acc)
	}
	return w, nil
}

func (a *pdAcc) merge(b *pdAcc) {
	a.out.attempted += b.out.attempted
	a.out.failed += b.out.failed
	a.out.problems = append(a.out.problems, b.out.problems...)
	a.lat.merge(b.lat)
	a.campaignNs += b.campaignNs
	a.sessions += b.sessions
	a.events += b.events
	a.instructions += b.instructions
	a.attempts += b.attempts
	a.delivered += b.delivered
}

// round is one pass of the loop over the eight apps on a fresh market:
// detection on each pirated copy until its verdict flips, then control
// campaigns on the genuine apps. The apps go one after another, one
// device population at a time, which keeps a round's time a function
// of the work alone. round returns its total time.
func (d *detector) round(ctx context.Context, acc *pdAcc, tr *tracer) (total time.Duration, err error) {
	dir := filepath.Join(d.dataDir, fmt.Sprintf("round-%d", d.rounds))
	d.rounds++
	st, _, err := market.Open(market.Config{Dir: dir})
	if err != nil {
		return 0, err
	}
	d.front.set(market.NewHandler(st))
	defer func() {
		d.front.set(http.NotFoundHandler())
		if cerr := st.Close(); cerr != nil && err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
	}()

	op := tr.id()
	rootID := tr.id()
	start := time.Now()
	for _, a := range d.apps {
		t0 := time.Now()
		acc.detectNs[a.name] = d.detectApp(ctx, a, acc, tr, op, rootID).Sub(t0).Nanoseconds()
	}
	for _, a := range d.apps {
		d.control(ctx, a, acc, tr, op, rootID)
	}
	end := time.Now()
	tr.record(rootID, 0, op, "detection round", layerBench, start, end)
	return end.Sub(start), ctx.Err()
}

// probeSink is the terminal sink behind the campaign's faulted
// channel: it delivers through report.HTTPSink, and after every
// delivered report reads the app's fused verdict, its timeline and its
// near-duplicates, as a market front end deciding on a takedown would.
type probeSink struct {
	ctx        context.Context
	http       report.Sink
	cl         *market.Client
	app        string
	acc        *pdAcc
	control    bool
	keys       map[string]int // deliveries per event key, this campaign
	sinkNs     int64
	flipAt     time.Time
	tr         *tracer
	op, parent int64
}

func (s *probeSink) Deliver(ev report.Event, nowMs int64) error {
	t0 := time.Now()
	defer func() { s.sinkNs += time.Since(t0).Nanoseconds() }()
	err := s.http.Deliver(ev, nowMs)
	t1 := time.Now()
	s.tr.record(s.tr.id(), s.parent, s.op, "report.HTTPSink.Deliver", layerReport, t0, t1)
	s.acc.out.attempted++
	s.acc.lat.add("ingest", t1.Sub(t0))
	if err != nil {
		s.acc.out.fail("%s: delivery: %v", s.app, err)
		return err
	}
	s.keys[ev.Key()]++
	if s.control {
		s.acc.out.fail("genuine %s was reported: %+v", s.app, ev)
		return nil
	}
	v, ok := s.verdict()
	if ok && v.Flagged && s.flipAt.IsZero() {
		s.flipAt = time.Now()
	}
	// The evidence behind the verdict: nothing is written between the
	// reads, so the timeline must count what the verdict counted.
	timed(s.acc, s.tr, s.op, s.parent, "timeline", func() error {
		tl, err := s.cl.Timelines().Get(s.ctx, s.app)
		if err == nil && ok && (tl.App != s.app || tl.Detections != v.Channels.Reports.Detections) {
			err = fmt.Errorf("timeline %q counts %d detections, verdict %d", tl.App, tl.Detections, v.Channels.Reports.Detections)
		}
		return err
	})
	timed(s.acc, s.tr, s.op, s.parent, "similar", func() error {
		sim, err := s.cl.Fingerprints().Similar(s.ctx, s.app)
		if err == nil && (sim.App != s.app || !sim.Known) {
			err = fmt.Errorf("similar answered app=%q known=%v", sim.App, sim.Known)
		}
		return err
	})
	return nil
}

func (s *probeSink) verdict() (market.Verdict, bool) {
	t0 := time.Now()
	v, err := s.cl.Verdicts().Get(s.ctx, s.app)
	t1 := time.Now()
	s.tr.record(s.tr.id(), s.parent, s.op, "market.Client.Verdicts.Get", layerMarket, t0, t1)
	s.acc.out.attempted++
	s.acc.lat.add("verdict", t1.Sub(t0))
	if err != nil {
		s.acc.out.fail("%s: verdict: %v", s.app, err)
		return v, false
	}
	if v.App != s.app {
		s.acc.out.fail("%s: verdict answered for %q", s.app, v.App)
		return v, false
	}
	return v, true
}

// wave runs one chaos campaign and checks its invariants.
func (d *detector) wave(ctx context.Context, a *protectedApp, genuine bool, sink *probeSink, wave int) {
	pkg := a.pirated
	if genuine {
		pkg = a.genuine
	}
	sink.keys = map[string]int{}
	sink.sinkNs = 0
	id := sink.tr.id()
	parent := sink.parent
	sink.parent = id
	t0 := time.Now()
	res, err := sim.RunChaos(ctx, pkg, a.surface, sim.ChaosOptions{
		Sessions: waveSessions,
		CapMs:    waveCapMs,
		Seed:     campaignSeed + appSeed(a.name) + int64(wave)*7919,
		Profile:  chaos.Mild,
		Sink:     sink,
	})
	t1 := time.Now()
	sink.parent = parent
	name := "sim.RunChaos pirated"
	if genuine {
		name = "sim.RunChaos genuine"
	}
	sink.tr.record(id, parent, sink.op, name, layerSim, t0, t1)
	acc := sink.acc
	if err != nil {
		acc.out.fail("%s: campaign: %v", a.name, err)
		return
	}
	acc.campaignNs += t1.Sub(t0).Nanoseconds() - sink.sinkNs
	cs := res.Obs.Snapshot().Counters
	acc.sessions += cs["sim_sessions_total"]
	acc.events += cs["sim_events_total"]
	for k, v := range cs {
		if strings.HasPrefix(k, "vm_op_total{") {
			acc.instructions += v
		}
	}
	acc.attempts += res.Pipeline.Attempts
	acc.delivered += res.Pipeline.Delivered
	// The sink the campaign sees is ours, not a MemorySink, so its
	// exactly-once tallies come from our per-key delivery counts.
	res.SinkUnique = len(sink.keys)
	for _, n := range sink.keys {
		res.SinkMaxPerKey = max(res.SinkMaxPerKey, n)
	}
	if !res.ExactlyOnce() {
		acc.out.fail("%s wave %d: not exactly-once (%d unique submitted, %d delivered, max %d per key)",
			a.name, wave, res.UniqueDetects, res.SinkUnique, res.SinkMaxPerKey)
	}
	if res.Panics != 0 {
		acc.out.fail("%s wave %d: %d sessions panicked", a.name, wave, res.Panics)
	}
	if genuine && res.Reports != 0 {
		acc.out.fail("genuine %s produced %d reports", a.name, res.Reports)
	}
}

// detectApp uploads the pirated copy's fingerprint, runs waves until
// its verdict flips, then reads its timeline and near-duplicates. It
// returns when the flip was observed.
func (d *detector) detectApp(ctx context.Context, a *protectedApp, acc *pdAcc, tr *tracer, op, parent int64) time.Time {
	app := a.pirated.Name
	sink := &probeSink{ctx: ctx, http: &report.HTTPSink{URL: d.srv.url + "/v1/reports", Client: d.hc},
		cl: d.cl, app: app, acc: acc, tr: tr, op: op}
	id := tr.id()
	sink.parent = id
	t0 := time.Now()
	defer func() { tr.record(id, parent, op, "detect "+a.name, layerBench, t0, time.Now()) }()

	digests := fingerprintOf(a, tr, op, id)
	timed(acc, tr, op, id, "fingerprint", func() error {
		ack, err := d.cl.Fingerprints().Put(ctx, market.Fingerprint{App: app, Digests: digests})
		if err == nil && (ack.App != app || ack.Entries == 0) {
			err = fmt.Errorf("unexpected ack %+v", ack)
		}
		return err
	})
	for w := 0; sink.flipAt.IsZero() && w < maxWaves && ctx.Err() == nil; w++ {
		d.wave(ctx, a, false, sink, w)
	}
	if sink.flipAt.IsZero() {
		acc.out.fail("%s: verdict never flipped after %d waves", a.name, maxWaves)
		return time.Now()
	}
	timed(acc, tr, op, id, "timeline", func() error {
		tl, err := d.cl.Timelines().Get(ctx, app)
		if err != nil {
			return err
		}
		if tl.App != app {
			return fmt.Errorf("timeline answered for %q", tl.App)
		}
		return d.checkTTV(app, tl.TimeToVerdictMs)
	})
	timed(acc, tr, op, id, "similar", func() error {
		s, err := d.cl.Fingerprints().Similar(ctx, app)
		if err == nil && !s.Known {
			err = errors.New("fingerprint unknown after upload")
		}
		return err
	})
	return sink.flipAt
}

// checkTTV holds every round's time_to_verdict_ms to the first
// round's: the same seed must give the same virtual detection time.
func (d *detector) checkTTV(app string, ms int64) error {
	ref, ok := d.ttv[app]
	if !ok {
		d.ttv[app] = ms
		return nil
	}
	if ref != ms {
		return fmt.Errorf("time_to_verdict_ms %d, first round had %d", ms, ref)
	}
	return nil
}

// control runs one wave on the genuinely signed app: no bomb may
// report, so the sink must stay empty.
func (d *detector) control(ctx context.Context, a *protectedApp, acc *pdAcc, tr *tracer, op, parent int64) {
	sink := &probeSink{ctx: ctx, http: &report.HTTPSink{URL: d.srv.url + "/v1/reports", Client: d.hc},
		cl: d.cl, app: a.genuine.Name, acc: acc, control: true, tr: tr, op: op, parent: parent}
	d.wave(ctx, a, true, sink, 0)
}

// timed runs one market read or write over HTTP as an operation of
// type op, recording its latency and any error.
func timed(acc *pdAcc, tr *tracer, opID, parent int64, op string, f func() error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	tr.record(tr.id(), parent, opID, "market.Client "+op, layerMarket, t0, t1)
	acc.out.attempted++
	acc.lat.add(op, t1.Sub(t0))
	if err != nil {
		acc.out.fail("%s: %v", op, err)
	}
}

// report fills the end-to-end metrics of an untraced window.
func (w *pdWindow) report(out *runOut) {
	w.checks(out)
	out.e2e["detect_s"] = w.detectS()
	var rates []float64
	for i, r := range w.rounds {
		rates = append(rates, float64(r.out.attempted)/w.busy[i])
	}
	out.e2e["ops_per_s"] = median(rates)
	for _, op := range opNames {
		out.e2e[op+"_p50_ms"] = w.acc.lat.get(op).ms(0.5)
	}
	for _, op := range tailOps {
		out.e2e[op+"_p95_ms"] = w.acc.lat.get(op).ms(0.95)
	}
	printCounts(w.acc.lat)
}

// checks adds the window's operation counts and problems to out.
func (w *pdWindow) checks(out *runOut) {
	for _, a := range []*pdAcc{w.warm, w.acc} {
		out.attempted += a.out.attempted
		out.failed += a.out.failed
		out.problems = append(out.problems, a.out.problems...)
	}
}

// layers fills the per-layer metrics of a traced window.
func (w *pdWindow) layers(l map[string]float64) {
	a := w.acc
	var selfMs []float64
	for _, r := range w.rounds {
		selfMs = append(selfMs, float64(r.campaignNs)/1e6)
	}
	l["sim.campaign_self_ms"] = median(selfMs)
	l["sim.sessions_per_s"] = ratio(float64(a.sessions), float64(a.campaignNs)/1e9)
	l["sim.events_per_session"] = ratio(float64(a.events), float64(a.sessions))
	l["vm.instructions_per_session"] = ratio(float64(a.instructions), float64(a.sessions))
	l["report.deliver_ms"] = a.lat.get("ingest").ms(0.50)
	l["report.attempts_per_delivered"] = ratio(float64(a.attempts), float64(a.delivered))
	l["market.verdict_read_ms"] = a.lat.get("verdict").ms(0.50)
}
