// Command perfbench is the repository benchmark. One invocation runs one
// workload, checks the program's outputs, and prints one JSON result line
// as the last line of standard output:
//
//	perfbench --workload suite-small|serve-zipf|kernels-host --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics that
// BENCHMARK.json bounds; with --trace 1 the run repeats the measured phase
// with spans recorded around every call into a layer, writes the spans to
// .bench_build/spans/, and reports the per-layer metrics instead. A line
// of host context (Go version, CPUs, cache sizes, triad bandwidth) is
// printed before the result; it is context and is never compared.
// NOTES.md describes the workloads, the metrics and the layers each
// should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/kernels"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line: whether the outputs checked out, how
// many operations were attempted and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one invocation, shared by the workload drivers.
type bench struct {
	seed    uint64
	seconds float64
	workers int
	tr      *tracer // nil outside the traced phase

	attempted, failed int64
	// failures keeps the first few failure descriptions for stderr.
	failures []string

	// e2e and layer hold measured values by metric name; units come
	// from BENCHMARK.json.
	e2e   map[string]float64
	layer map[string]float64
}

// fail counts one failed operation and keeps its description for the log.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 10 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

// setUp runs a workload's set-up repeats times and records the median as
// setup_s. Before each repetition release drops the previous one's state
// and a GC runs, so repetitions neither pay for nor keep each other's
// garbage; each runs inside a "bench.setup" root span. The last
// repetition's result is the one measured.
func (b *bench) setUp(repeats int, release func(), f func(root int) error) error {
	var times []float64
	for i := 0; i < repeats; i++ {
		release()
		runtime.GC()
		root := b.tr.begin("bench.setup", -1, 0)
		t0 := time.Now()
		err := f(root)
		times = append(times, time.Since(t0).Seconds())
		b.tr.end(root)
		if err != nil {
			return err
		}
	}
	b.e2e["setup_s"] = median(times)
	return nil
}

// workload is one benchmark workload driver. It fills b.e2e with every
// end-to-end metric and, when traced, b.layer with its per-layer metrics.
type workload func(b *bench) error

var workloads = map[string]workload{
	"suite-small":  suiteSmall,
	"serve-zipf":   serveZipf,
	"kernels-host": kernelsHost,
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name    = flag.String("workload", "", "workload to run: suite-small, serve-zipf or kernels-host")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		traced  = flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown --workload %q", *name)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	b := &bench{
		seed:    *seed,
		seconds: *seconds,
		workers: runtime.NumCPU(),
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	if *traced == 1 {
		b.tr = newTracer()
	}
	stealBefore, totalBefore := cpuSteal()
	if err = w(b); err != nil {
		return err
	}
	stealAfter, totalAfter := cpuSteal()
	// Peak RSS is read before the triad calibration, whose arrays would
	// otherwise dominate it, unless the workload took it at a defined point.
	if _, ok := b.e2e["peak_rss_mb"]; !ok {
		b.e2e["peak_rss_mb"] = peakRSSMB()
	}
	if b.attempted < 1 {
		return errors.New("workload attempted no operations")
	}
	b.e2e["ok_ratio"] = 1 - float64(b.failed)/float64(b.attempted)
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", f)
	}

	if b.tr != nil {
		self, err := json.Marshal(map[string]any{"self_s": layerSelfTimes(b.tr.snapshot())})
		if err != nil {
			return err
		}
		fmt.Println(string(self))
	}
	host := hostContext(b.tr != nil)
	if totalAfter > totalBefore {
		host["steal_pct"] = 100 * float64(stealAfter-stealBefore) / float64(totalAfter-totalBefore)
	}
	if b.tr != nil {
		path, err := b.tr.writeOut(*name, *seed)
		if err != nil {
			return err
		}
		host["spans_file"] = path
	}
	hostLine, err := json.Marshal(map[string]any{"host": host})
	if err != nil {
		return err
	}
	fmt.Println(string(hostLine))

	e2e, err := sp.resolve(b.e2e, sp.EndToEnd, true)
	if err != nil {
		return err
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: e2e}
	if b.tr != nil {
		if out.Metrics, err = sp.resolve(b.layer, sp.PerLayer, false); err != nil {
			return err
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// peakRSSMB returns the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuSteal returns the host's steal and total CPU ticks from /proc/stat
// (zeros when unavailable). On a shared virtual machine the share of time
// stolen by other guests is the main source of run-to-run spread, so it
// is reported with every result.
func cpuSteal() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// triadElems sizes the calibration arrays: 3 × 128 MiB of float32, which
// exceeds the 300 MiB shared L3 of the reference host (not by the 4× a
// strict STREAM run asks for; the figure is context, never compared).
const triadElems = 32 << 20

// hostContext describes the machine the run measured on.
func hostContext(traced bool) map[string]any {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	t0 := time.Now()
	triad := kernels.MeasureStreamBandwidth(triadElems, 3).TriadGBs
	return map[string]any{
		"git_rev":         rev,
		"go_version":      runtime.Version(),
		"nproc":           runtime.NumCPU(),
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"caches":          cacheSizes(),
		"host.triad_gbps": triad,
		"triad_array_mib": triadElems * 4 >> 20,
		"triad_measure_s": time.Since(t0).Seconds(),
		"traced":          traced,
	}
}

// cacheSizes lists cpu0's cache levels as the kernel reports them, e.g.
// "L1d": "48K", "L2": "2048K", "L3": "307200K" (empty when unavailable).
func cacheSizes() map[string]string {
	out := map[string]string{}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	sort.Strings(dirs)
	for _, d := range dirs {
		read := func(f string) string {
			raw, err := os.ReadFile(filepath.Join(d, f))
			if err != nil {
				return ""
			}
			return strings.TrimSpace(string(raw))
		}
		level, typ, size := read("level"), read("type"), read("size")
		key := "L" + level
		switch typ {
		case "Data":
			key += "d"
		case "Instruction":
			key += "i"
		}
		out[key] = size
	}
	return out
}
