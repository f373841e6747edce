package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"runtime"
	"time"

	"bombdroid/internal/apk"
	"bombdroid/internal/appgen"
	"bombdroid/internal/core"
	"bombdroid/internal/exp"
	"bombdroid/internal/sim"
)

// profileEvents is the profiling budget exp.Quick and loadgen's
// campaign mode prepare apps with.
const profileEvents = 2_500

// protectedApp is one named app as exp.PrepareCtx leaves it:
// generated, profiled, protected, developer-signed and
// attacker-repackaged.
type protectedApp struct {
	name    string
	genuine *apk.Package // protected, developer-signed
	pirated *apk.Package // protected, attacker re-signed
	surface sim.Surface
}

// protection is one cold protect-detect set-up: its wall time, ending
// with a forced GC, and its core.RunInfo stage times summed over the
// apps. It is also what a --protect-once child prints.
type protection struct {
	Seconds     float64 `json:"seconds"`
	StageMs     float64 `json:"stage_ms"`
	ProfileMs   float64 `json:"profile_ms"`
	ConstructMs float64 `json:"construct_ms"`
	apps        []*protectedApp
}

func appSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7FFF_FFFF)
}

// protectAll prepares the eight named apps with exp.PrepareCtx. exp
// caches prepared apps for the life of the process, so only the first
// call in a process is cold, and protectAll refuses to report a set-up
// that exp did not run in full.
func protectAll(ctx context.Context, tr *tracer) (*protection, error) {
	p := &protection{}
	runs0 := exp.PrepareRuns()
	t0 := time.Now()
	for _, name := range appgen.NamedApps {
		s := time.Now()
		pa, err := exp.PrepareCtx(ctx, name, profileEvents)
		if err != nil {
			return nil, fmt.Errorf("protect %s: %w", name, err)
		}
		traceProtect(tr, name, pa.Run, s, time.Now())
		p.apps = append(p.apps, &protectedApp{name: name, genuine: pa.Protected, pirated: pa.Pirated, surface: pa.Surface})
		for _, st := range pa.Run.Stages {
			p.StageMs += float64(st.WallNs) / 1e6
		}
		p.ProfileMs += stageMs(pa.Run, core.StageProfile)
		p.ConstructMs += stageMs(pa.Run, core.StageConstruct)
	}
	runtime.GC()
	p.Seconds = time.Since(t0).Seconds()
	if n := exp.PrepareRuns() - runs0; n != int64(len(appgen.NamedApps)) {
		return nil, fmt.Errorf("set-up ran the protection pipeline %d times for %d apps: not cold", n, len(appgen.NamedApps))
	}
	return p, nil
}

// protectOnce is the --protect-once mode: one cold set-up in a fresh
// process, printed as JSON.
func protectOnce() error {
	p, err := protectAll(context.Background(), nil)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(p)
}

// protectInChild runs one cold set-up in a child process, which starts
// with exp's cache empty, and waits for it to end.
func protectInChild(ctx context.Context) (*protection, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, "--protect-once")
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("protection child: %w", err)
	}
	p := &protection{}
	if err := json.Unmarshal(b, p); err != nil {
		return nil, fmt.Errorf("protection child: %w", err)
	}
	return p, nil
}

func stageMs(ri core.RunInfo, st core.StageName) float64 {
	var ns int64
	for _, s := range ri.Stages {
		if s.Stage == st {
			ns += s.WallNs
		}
	}
	return float64(ns) / 1e6
}

// traceProtect records one exp.PrepareCtx call and its engine stages.
// core.RunInfo carries stage wall times but not start times; the
// stages run one after another, so they are laid end to end from the
// start of the call, which also generates and signs the app before
// them and signs and repackages it after them.
func traceProtect(tr *tracer, name string, ri core.RunInfo, start, end time.Time) {
	op := tr.id()
	tr.record(op, 0, op, "exp.PrepareCtx "+name, layerProtect, start, end)
	at := start
	for _, st := range ri.Stages {
		next := at.Add(time.Duration(st.WallNs))
		tr.record(tr.id(), op, op, "core.stage."+string(st.Stage), layerProtect, at, next)
		at = next
	}
}
