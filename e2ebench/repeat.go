package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// benchSpec is the part of BENCHMARK.json the repeat mode reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// repeatMode runs each workload n times as separate processes, seeds
// 1..n, and prints every end-to-end metric's median, quartiles and
// spread — (Q3 − Q1) / median, quartiles as Python's
// statistics.quantiles(n=4) computes them. A metric whose spread
// exceeds its bound is flagged FAIL; one above a third of its bound is
// flagged as not yet comfortably steady.
func repeatMode(only string, n, seconds int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range spec.Workloads {
		if only != "" && w.Name != only {
			continue
		}
		values := map[string][]float64{}
		for seed := 1; seed <= n; seed++ {
			cmd := exec.Command(self, "--workload", w.Name, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			res, err := lastResult(out)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.Name, seed, err)
			}
			if !res.Correct || res.Failed != 0 {
				bad++
				fmt.Printf("%s seed %d: correct=%v failed=%d of %d\n", w.Name, seed, res.Correct, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
		}
		fmt.Printf("\n%s (%d runs, %d s window)\n%-20s %12s %12s %12s %8s %7s\n",
			w.Name, n, seconds, "metric", "q1", "median", "q3", "spread", "bound")
		for _, m := range spec.EndToEnd {
			q1, med, q3 := quartiles(values[m.Name])
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / med
			}
			flag := ""
			switch {
			case spread > m.Bound:
				flag = "FAIL: spread above bound"
				bad++
			case spread > m.Bound/3:
				flag = "above bound/3"
			}
			fmt.Printf("%-20s %12.4f %12.4f %12.4f %8.4f %7.3f %s\n", m.Name, q1, med, q3, spread, m.Bound, flag)
		}
		fmt.Println("by seed:")
		for _, m := range spec.EndToEnd {
			fmt.Printf("%-20s %.4f\n", m.Name, values[m.Name])
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d failed runs or unsteady metrics", bad)
	}
	return nil
}

// lastResult parses the JSON object on the last line of a run's
// standard output.
func lastResult(out []byte) (resultJSON, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res resultJSON
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}

// quartiles returns Q1, the median and Q3 with the interpolation of
// Python's statistics.quantiles(data, n=4) (method "exclusive") and
// statistics.median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) < 2 {
		if len(xs) == 1 {
			return xs[0], xs[0], xs[0]
		}
		return 0, 0, 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	q := func(i int) float64 {
		m := ld + 1
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), median(d), q(3)
}
