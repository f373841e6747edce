package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// samples collects one operation type's latencies in nanoseconds.
// Each client goroutine owns its own samples, merged after the window,
// so recording takes no lock.
type samples []int64

func (s *samples) add(d time.Duration) { *s = append(*s, d.Nanoseconds()) }

// quantile returns the q-quantile (nearest rank) in nanoseconds, or 0
// for no samples.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(q * float64(len(c)))
	if i >= len(c) {
		i = len(c) - 1
	}
	return float64(c[i])
}

func (s samples) ms(q float64) float64 { return s.quantile(q) / 1e6 }
func (s samples) us(q float64) float64 { return s.quantile(q) / 1e3 }

// opSamples is a set of per-operation-type sample lists.
type opSamples map[string]*samples

func (o opSamples) add(op string, d time.Duration) {
	s := o[op]
	if s == nil {
		s = new(samples)
		o[op] = s
	}
	s.add(d)
}

func (o opSamples) get(op string) samples {
	if s := o[op]; s != nil {
		return *s
	}
	return nil
}

// merge folds other into o.
func (o opSamples) merge(other opSamples) {
	for op, s := range other {
		for _, v := range *s {
			o.add(op, time.Duration(v))
		}
	}
}

// printCounts states on standard error how many samples of each
// operation type the end-to-end latencies were taken over.
func printCounts(lat opSamples) {
	for _, op := range opNames {
		fmt.Fprintf(os.Stderr, "%s: %d samples\n", op, len(lat.get(op)))
	}
}

// median of a float slice; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a counter that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
