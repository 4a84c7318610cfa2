package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// specMetric is one metric declaration of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report. The file is the single list of
// metrics; the run fails when a workload reports a metric it does not
// declare or misses an end-to-end one.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("read metric declarations (run from the repository root): %w", err)
	}
	var s spec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// resolve attaches units to measured values. Every end-to-end metric must
// be measured; a per-layer metric of a layer the workload does not
// exercise reads 0.
func (s *spec) resolve(vals map[string]float64, decl []specMetric, required bool) (map[string]metric, error) {
	out := make(map[string]metric, len(decl))
	known := map[string]bool{}
	for _, d := range decl {
		known[d.Name] = true
		v, ok := vals[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	var unknown []string
	for name := range vals {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics not declared in BENCHMARK.json: %v", unknown)
	}
	return out, nil
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := p * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i] + frac*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietest returns the lowest p-quantile among n consecutive windows of
// xs (samples in time order). Other guests on a shared host only ever add
// time, in bursts of seconds (steal ran from 1% to 12% of a run on the
// reference 2-vCPU virtual machine), so for samples of one kind of
// operation the quietest window is the steadiest estimate of the
// program's own latency. With fewer samples than windows, empty windows
// are skipped; no samples give 0.
func quietest(xs []float64, p float64, n int) float64 {
	if len(xs) == 0 {
		return 0
	}
	best := math.Inf(1)
	for w := 0; w < n; w++ {
		if win := xs[w*len(xs)/n : (w+1)*len(xs)/n]; len(win) > 0 {
			best = math.Min(best, quantile(win, p))
		}
	}
	return best
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts durations to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
