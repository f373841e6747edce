package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"bombdroid/internal/market"
	"bombdroid/internal/report"
)

// corpusShape states the fingerprint corpus the market workloads run
// on. Every app draws some digests from one library pool with Zipf
// popularity, standing in for the common resource files that
// FSquaDRA2 and ARMAND name as a source of false similarity, and the
// rest are its own; clone families stand in for repackaged apps that
// copy most of an original's own resources. The numbers are
// assumptions, not measurements: nothing in the repository measures
// how many apps share a library resource or how popular the common
// ones are. With LibZipfV at 128 the head is flat: the most common
// library digest is in under 1% of the apps, so no file is close to
// universal.
type corpusShape struct {
	Apps        int     `json:"apps"`
	OwnPerApp   int     `json:"own_digests_per_app"`
	LibPerApp   int     `json:"library_draws_per_app"`
	LibPool     int     `json:"library_pool"`
	LibZipfS    float64 `json:"library_zipf_s"`
	LibZipfV    float64 `json:"library_zipf_v"`
	Families    int     `json:"clone_families"`
	FamilySize  int     `json:"clone_family_size"`
	CloneKeeps  int     `json:"clone_keeps_own_digests"`
	AppZipfS    float64 `json:"app_popularity_zipf_s"`
	SeedEvents  int     `json:"seed_events"`
	FlaggedHead int     `json:"seed_flagged_family_heads"`
}

var shape = corpusShape{
	Apps:        4096,
	OwnPerApp:   24,
	LibPerApp:   2,
	LibPool:     4096,
	LibZipfS:    1.3,
	LibZipfV:    128,
	Families:    128,
	FamilySize:  4,
	CloneKeeps:  20,
	AppZipfS:    0.7,
	SeedEvents:  16384,
	FlaggedHead: 64,
}

// corpus is the generated market state: one fingerprint per app, the
// library digests (to classify candidates), and the report events
// seeded before the window.
type corpus struct {
	apps    []string
	fps     map[string][]string
	lib     map[string]bool
	seedEvs []report.Event
	appZipf func(*rand.Rand) int
}

func digest(parts ...any) string {
	h := sha256.Sum256([]byte(fmt.Sprint(parts...)))
	return hex.EncodeToString(h[:])
}

func appName(i int) string { return fmt.Sprintf("com.bench.app%04d", i) }

// zipfIndex returns a sampler of [0,n) with P(k) ∝ (v+k)^-s, drawing
// from the caller's rng so every stream stays seed-determined.
func zipfIndex(n int, s, v float64) func(*rand.Rand) int {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(v+float64(k), s)
		cdf[k] = sum
	}
	return func(r *rand.Rand) int {
		x := r.Float64() * sum
		return sort.SearchFloat64s(cdf, x)
	}
}

func genCorpus(seed int64) *corpus {
	r := rand.New(rand.NewSource(seed))
	c := &corpus{
		fps: make(map[string][]string, shape.Apps),
		lib: make(map[string]bool, shape.LibPool),
	}
	libDigests := make([]string, shape.LibPool)
	for i := range libDigests {
		libDigests[i] = digest("lib", seed, i)
		c.lib[libDigests[i]] = true
	}
	libZipf := zipfIndex(shape.LibPool, shape.LibZipfS, shape.LibZipfV)
	// App popularity ranks are a seeded permutation, so the hottest
	// apps are not always the family heads.
	perm := r.Perm(shape.Apps)
	for i := 0; i < shape.Apps; i++ {
		c.apps = append(c.apps, appName(i))
	}
	var heads []string
	for i := 0; i < shape.Apps; i++ {
		app := c.apps[i]
		fam := -1
		if i < shape.Families*shape.FamilySize {
			fam = i / shape.FamilySize
		}
		var ds []string
		for k := 0; k < shape.LibPerApp; k++ {
			ds = append(ds, libDigests[libZipf(r)])
		}
		switch {
		case fam >= 0 && i%shape.FamilySize != 0:
			head := c.fps[c.apps[fam*shape.FamilySize]]
			own := ownDigests(head, c.lib)
			r.Shuffle(len(own), func(a, b int) { own[a], own[b] = own[b], own[a] })
			ds = append(ds, own[:shape.CloneKeeps]...)
			for k := shape.CloneKeeps; k < shape.OwnPerApp; k++ {
				ds = append(ds, digest("own", seed, i, k))
			}
		default:
			if fam >= 0 {
				heads = append(heads, app)
			}
			for k := 0; k < shape.OwnPerApp; k++ {
				ds = append(ds, digest("own", seed, i, k))
			}
		}
		c.fps[app] = canonical(ds)
	}
	zipfApp := zipfIndex(shape.Apps, shape.AppZipfS, 1)
	c.appZipf = func(r *rand.Rand) int { return perm[zipfApp(r)] }

	// Seeded reports: Zipf-popular apps collect detections, and the
	// first FlaggedHead family heads get enough to be reports-flagged,
	// so their clones' fused verdicts flip through the similarity
	// channel.
	for i := 0; i < shape.SeedEvents; i++ {
		app := c.apps[c.appZipf(r)]
		c.seedEvs = append(c.seedEvs, report.Event{
			App: app, Bomb: fmt.Sprintf("bomb-%d", r.Intn(16)),
			User: fmt.Sprintf("seed-user-%d", i), TimeMs: int64(i), Info: "seed",
		})
	}
	for h, app := range heads[:shape.FlaggedHead] {
		for k := 0; k < 4; k++ {
			c.seedEvs = append(c.seedEvs, report.Event{
				App: app, Bomb: "bomb-head", User: fmt.Sprintf("head-user-%d-%d", h, k),
				TimeMs: int64(shape.SeedEvents + 4*h + k), Info: "seed",
			})
		}
	}
	return c
}

// topLibraryShare is the share of apps whose fingerprint holds the
// most common library digest.
func (c *corpus) topLibraryShare() float64 {
	n := map[string]int{}
	top := 0
	for _, fp := range c.fps {
		for _, d := range fp {
			if c.lib[d] {
				n[d]++
				top = max(top, n[d])
			}
		}
	}
	return float64(top) / float64(len(c.fps))
}

func ownDigests(fp []string, lib map[string]bool) []string {
	var out []string
	for _, d := range fp {
		if !lib[d] {
			out = append(out, d)
		}
	}
	return out
}

func canonical(ds []string) []string {
	out := append([]string(nil), ds...)
	sort.Strings(out)
	n := 0
	for i, d := range out {
		if i == 0 || d != out[n-1] {
			out[n] = d
			n++
		}
	}
	return out[:n]
}

// fingerprint returns app's fingerprint as the market API takes it.
func (c *corpus) fingerprint(app string) market.Fingerprint {
	return market.Fingerprint{App: app, Digests: c.fps[app]}
}
