// Command cachesim reports the simulated L2 behaviour of a kernel over a
// MatrixMarket matrix under one or more reordering techniques.
//
// Usage:
//
//	cachesim -in a.mtx [-techniques RANDOM,RABBIT,RABBIT++]
//	         [-kernel spmv-csr|spmv-coo|spmm-4|spmm-256|spgemm|spgemm-cluster]
//	         [-l2 262144] [-line 128] [-ways 16] [-belady] [-workers n]
//	         [-impl fast|reference]
//	         [-devices K] [-partition rowblock|metis|community]
//
// Techniques are reordered and simulated concurrently on a bounded worker
// pool (-workers, default all CPUs); the table rows keep the -techniques
// order regardless of completion order. -impl selects the simulator
// implementation: the arena/streaming fast path (default) or the seed
// reference implementation, which produces bit-identical numbers and
// exists for differential checks.
//
// -devices K > 1 switches to the multi-device model: the L2 splits into K
// private caches, rows are assigned to devices by -partition (over the
// reordered matrix), and the table reports remote-traffic fraction and
// per-device load imbalance instead of dead lines. Belady and the
// spgemm-cluster kernel have no multi-device counterpart.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gpumodel"
	"repro/internal/kernels"
	"repro/internal/multidev"
	"repro/internal/partition"
	"repro/internal/reorder"
	"repro/internal/report"
	"repro/internal/sparse"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "input MatrixMarket file (required)")
		techs   = flag.String("techniques", "ORIGINAL,RANDOM,RABBIT,RABBIT++", "comma-separated techniques")
		kernel  = flag.String("kernel", "spmv-csr", "kernel: spmv-csr, spmv-coo, spmm-4, spmm-256, spgemm, spgemm-cluster")
		l2      = flag.Int64("l2", 256<<10, "L2 capacity in bytes")
		line    = flag.Int64("line", 128, "cache line size in bytes")
		ways    = flag.Int("ways", 16, "associativity")
		belady  = flag.Bool("belady", false, "also simulate Belady-optimal replacement")
		workers = flag.Int("workers", 0, "concurrent technique simulations (0 = all CPUs, 1 = serial)")
		impl    = flag.String("impl", "fast", "simulator implementation: fast or reference (differential check)")
		devices = flag.Int("devices", 1, "simulated compute devices with private L2 slices (1 = flat single L2)")
		part    = flag.String("partition", "rowblock", "row->device partitioner for -devices > 1: rowblock, metis, community")
	)
	flag.Parse()
	simImpl, err := cachesim.ParseImpl(*impl)
	if err != nil {
		return err
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", *workers)
	}
	if *workers == 0 {
		*workers = runtime.NumCPU()
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	var k gpumodel.Kernel
	switch *kernel {
	case "spmv-csr":
		k = gpumodel.Kernel{Kind: gpumodel.SpMVCSR}
	case "spmv-coo":
		k = gpumodel.Kernel{Kind: gpumodel.SpMVCOO}
	case "spmm-4":
		k = gpumodel.Kernel{Kind: gpumodel.SpMMCSR, K: 4}
	case "spmm-256":
		k = gpumodel.Kernel{Kind: gpumodel.SpMMCSR, K: 256}
	case "spgemm":
		k = gpumodel.Kernel{Kind: gpumodel.SpGEMMCSR}
	case "spgemm-cluster":
		k = gpumodel.Kernel{Kind: gpumodel.SpGEMMCSRCluster}
	default:
		return fmt.Errorf("unknown kernel %q", *kernel)
	}
	cfg := cachesim.Config{CapacityBytes: *l2, LineBytes: *line, Ways: int32(*ways)}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if *devices < 1 {
		return fmt.Errorf("-devices must be >= 1, got %d", *devices)
	}
	if *devices > 1 {
		switch *part {
		case "rowblock", "metis", "community":
		default:
			return fmt.Errorf("unknown partitioner %q (want rowblock, metis, or community)", *part)
		}
		if *belady {
			return fmt.Errorf("-belady has no multi-device counterpart; drop it or use -devices 1")
		}
		if k.Kind == gpumodel.SpGEMMCSRCluster {
			return fmt.Errorf("kernel %s has no multi-device trace; use -kernel spgemm", *kernel)
		}
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	m, err := sparse.ReadMatrixMarket(bufio.NewReader(f))
	f.Close()
	if err != nil {
		return err
	}
	n, nnz := int64(m.NumRows), int64(m.NNZ())

	// The SpGEMM kinds simulate C = M·M, so they need the product's
	// symbolic shape: the work totals parameterize the analytic traffic
	// model and trace bound, and the per-row output sizes lay out each
	// technique's trace. All are invariant under symmetric relabeling, so
	// one pass over m serves every technique (rows permuted along).
	var rowNNZ []int32
	if k.Kind == gpumodel.SpGEMMCSR || k.Kind == gpumodel.SpGEMMCSRCluster {
		info, err := kernels.SpGEMMSymbolic(m, m)
		if err != nil {
			return fmt.Errorf("%s kernel: %w", *kernel, err)
		}
		k.Work = gpumodel.SpGEMMWork{Flops: info.Flops, NNZB: nnz, NNZC: info.NNZC}
		rowNNZ = info.RowNNZ
	}

	cols := []string{"technique", "traffic", "hit-rate", "dead-lines"}
	title := fmt.Sprintf("%s on %s (%d rows, %d nnz), L2 %dKB", k.String(), *in, n, nnz, *l2>>10)
	if *devices > 1 {
		cols = []string{"technique", "traffic", "hit-rate", "remote%", "imbalance", "max-dev"}
		title = fmt.Sprintf("%s, %d devices (%s split)", title, *devices, *part)
	}
	if *belady {
		cols = append(cols, "belady-traffic")
	}
	tb := report.New(title, cols...)

	// ownerFor assigns each row of the reordered matrix to a device.
	ownerFor := func(pm *sparse.CSR) []int32 {
		switch *part {
		case "metis":
			return partition.Partition(pm, partition.Options{Parts: int32(*devices)})
		case "community":
			return partition.FromCommunities(core.Rabbit(pm).Communities, int32(*devices))
		default:
			return partition.RowBlocks(pm.NumRows, int32(*devices))
		}
	}
	// Reorder and simulate the techniques concurrently; rows land in
	// their -techniques slot so output order is deterministic.
	names := strings.Split(*techs, ",")
	rows := make([][]string, len(names))
	errs := make([]error, len(names))
	sem := make(chan struct{}, *workers)
	var wg sync.WaitGroup
	for i, name := range names {
		i, name := i, name
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			t, err := reorder.ByName(strings.TrimSpace(name))
			if err != nil {
				errs[i] = err
				return
			}
			p := t.Order(m)
			pm := m.PermuteSymmetric(p)
			cRowNNZ := experiments.PermuteRowNNZ(rowNNZ, p)
			if *devices > 1 {
				mcfg := multidev.Config{Devices: *devices, L2: cfg.Split(*devices), Impl: simImpl}
				mds := multidev.Simulate(mcfg, experiments.KernelOwnedTrace(k, pm, cRowNNZ, ownerFor(pm), *line))
				rows[i] = []string{
					t.Name(),
					report.X(gpumodel.NormalizedTraffic(mds.Flat(), k, n, nnz)),
					report.Pct(mds.Flat().HitRate()),
					report.Pct(mds.RemoteFraction()),
					report.F(mds.Imbalance()),
					report.Bytes(mds.MaxDeviceTrafficBytes()),
				}
				return
			}
			tf := experiments.KernelTrace(k, pm, cRowNNZ, *line)
			s := cachesim.SimulateLRUWith(cfg, simImpl, tf)
			row := []string{
				t.Name(),
				report.X(gpumodel.NormalizedTraffic(s, k, n, nnz)),
				report.Pct(s.HitRate()),
				report.Pct(s.DeadLineFraction()),
			}
			if *belady {
				hint := k.TraceAccessUpperBound(n, nnz, *line)
				bs := cachesim.SimulateBeladyFunc(cfg, simImpl, tf, hint)
				row = append(row, report.X(gpumodel.NormalizedTraffic(bs, k, n, nnz)))
			}
			rows[i] = row
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, row := range rows {
		tb.Add(row...)
	}
	tb.Note("traffic is normalized to the kernel's analytic compulsory traffic")
	return tb.Render(os.Stdout)
}
