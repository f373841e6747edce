package main

import (
	"math/rand"
	"time"

	"bombdroid/internal/market/similarity"
)

// mirrorQueries is how many near-duplicate queries the mirror index
// answers in a traced run.
const mirrorQueries = 256

// mirrorSimilarity builds a similarity.Index of the workload's
// fingerprints beside the market and times its two phases directly:
// candidate generation through the posting lists, and exact rescoring.
// lib marks shared-library digests; a candidate that shares only
// library digests with its query is one the library pool alone put to
// work. Each query's two calls are spans of the similarity layer.
func mirrorSimilarity(fps map[string][]string, lib map[string]bool, l map[string]float64, tr *tracer) {
	ix := similarity.NewIndex()
	apps := sortedKeys(fps)
	for _, app := range apps {
		ix.Set(app, fps[app])
	}
	r := rand.New(rand.NewSource(int64(len(apps))))
	var candNs, rankNs []float64
	var neighbors, rescored, libOnlyN int64
	s0, r0 := ix.Stats()
	for q := 0; q < mirrorQueries; q++ {
		app := apps[r.Intn(len(apps))]
		fp, _ := ix.Get(app)
		t0 := time.Now()
		cands := ix.Candidates(fp, app)
		t1 := time.Now()
		ns := similarity.TopK(similarity.Rank(fp, cands, ix.DF, ix.Apps()), 10)
		t2 := time.Now()
		op := tr.id()
		tr.record(op, 0, op, "similar via mirror index", layerBench, t0, t2)
		tr.record(tr.id(), op, op, "similarity.Index.Candidates", layerSimilarity, t0, t1)
		tr.record(tr.id(), op, op, "similarity.Rank+TopK", layerSimilarity, t1, t2)
		candNs = append(candNs, float64(t1.Sub(t0).Nanoseconds()))
		rankNs = append(rankNs, float64(t2.Sub(t1).Nanoseconds()))
		neighbors += int64(len(ns))
		own := map[string]bool{}
		for _, d := range fp {
			if !lib[d] {
				own[d] = true
			}
		}
		for _, cfp := range cands {
			if !sharesAny(cfp, own) {
				libOnlyN++
			}
		}
		rescored += int64(len(cands))
	}
	s1, r1 := ix.Stats()
	l["similarity.candidates_us"] = median(candNs) / 1e3
	l["similarity.rank_us"] = median(rankNs) / 1e3
	l["similarity.scanned_per_query"] = float64(s1-s0) / mirrorQueries
	l["similarity.rescored_per_query"] = float64(r1-r0) / mirrorQueries
	l["similarity.useful_ratio"] = ratio(float64(neighbors), float64(rescored))
	l["similarity.lib_only_share"] = ratio(float64(libOnlyN), float64(rescored))
}

func sharesAny(fp []string, set map[string]bool) bool {
	for _, d := range fp {
		if set[d] {
			return true
		}
	}
	return false
}
