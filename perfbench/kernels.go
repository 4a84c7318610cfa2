package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/community"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kernels"
	"repro/internal/reorder"
	"repro/internal/sparse"
)

// kernels-host sizes. The SpMV matrix's x vector (4 B/row, 2.25 MiB) is
// larger than one core's 2 MiB L2, while the whole matrix (≈ 21 MiB of
// CSR arrays) stays inside the 300 MiB shared L3 of the reference host:
// the regime measured is "x misses L2, everything hits L3", not DRAM.
// No in-memory matrix of a benchmark-sized run can leave that L3.
const (
	spmvNodes    = 576 << 10
	spmvDegree   = 4
	spgemmNodes  = 8 << 10
	spgemmDegree = 8
	// spmvPerRound parallel RABBIT++ SpMVs per measurement round; each
	// round also times the RANDOM order, the serial kernel and one C = A·A
	// per SpGEMM mode, so drift on a shared host hits all of them alike.
	spmvPerRound = 40
	sidePerRound = 4
)

// hostInputs is what kernels-host set-up produces.
type hostInputs struct {
	rabbitPP, random *sparse.CSR // the SpMV matrix under both orders
	spgemmA          *sparse.CSR // RABBIT-ordered SpGEMM operand
	tiles            []community.Shard
	x                []float32

	genS, genNNZ, reorderS, permuteS float64
	reorderNs                        map[string]float64 // technique → ns/nnz
}

// setupKernels generates and orders the inputs; every call into a layer
// is a span when traced.
func setupKernels(b *bench, parent int) *hostInputs {
	tr := b.tr
	in := &hostInputs{reorderNs: map[string]float64{}}
	var m, small *sparse.CSR
	genD := tr.timed("gen", parent, func() {
		m = gen.PlantedPartition{Nodes: spmvNodes, Communities: spmvNodes / 256, AvgDegree: spmvDegree, Mu: 0.1}.Generate(b.seed)
		small = gen.PlantedPartition{Nodes: spgemmNodes, Communities: spgemmNodes / 128, AvgDegree: spgemmDegree, Mu: 0.1}.Generate(b.seed ^ 0x5bd1e995)
	})
	in.genS = genD.Seconds()
	in.genNNZ = float64(m.NNZ() + small.NNZ())

	var pRand, pRab sparse.Permutation
	var rr *core.RabbitResult
	dRand := tr.timed("reorder.RANDOM", parent, func() { pRand = reorder.Random{Seed: b.seed}.Order(m) })
	dRab := tr.timed("reorder.RABBIT++", parent, func() { pRab = reorder.RabbitPP{}.Order(m) })
	dSmall := tr.timed("reorder.RABBIT", parent, func() { rr = core.Rabbit(small) })
	in.reorderS = (dRand + dRab + dSmall).Seconds()
	in.reorderNs["RANDOM"] = float64(dRand.Nanoseconds()) / float64(m.NNZ())
	in.reorderNs["RABBIT++"] = float64(dRab.Nanoseconds()) / float64(m.NNZ())
	in.reorderNs["RABBIT"] = float64(dSmall.Nanoseconds()) / float64(small.NNZ())

	permD := tr.timed("sparse.permute", parent, func() {
		in.random = m.PermuteSymmetric(pRand)
		in.rabbitPP = m.PermuteSymmetric(pRab)
		in.spgemmA = small.PermuteSymmetric(rr.Perm)
	})
	in.permuteS = permD.Seconds()

	// Tiles are the RABBIT communities, read in the reordered row order.
	labels := make([]int32, small.NumRows)
	for old, c := range rr.Communities.Of {
		labels[rr.Perm[old]] = c
	}
	in.tiles = community.TilesFromCommunities(labels, 0)

	in.x = make([]float32, m.NumCols)
	for i := range in.x {
		in.x[i] = float32(i%7) + 0.5
	}
	return in
}

// spgemmModes names the three execution modes in report order.
var spgemmModes = []string{"dense", "merge", "cluster"}

func runSpGEMM(mode string, a *sparse.CSR, tiles []community.Shard) (*sparse.CSR, error) {
	switch mode {
	case "dense":
		return kernels.SpGEMM(a, a, kernels.SpGEMMDenseAcc)
	case "merge":
		return kernels.SpGEMM(a, a, kernels.SpGEMMSortedMerge)
	default:
		c, _, err := kernels.SpGEMMClusterWise(a, a, tiles)
		return c, err
	}
}

// kernelTimes is one measured phase of kernels-host.
type kernelTimes struct {
	rounds, calls           int
	roundSecsPerCall        []float64 // each round's wall time per call
	wall                    time.Duration
	par, rand, serial       []time.Duration
	spgemm                  map[string][]time.Duration
	yPar, ySerial, yRandPar []float32
	yRandSerial             []float32
	products                map[string]*sparse.CSR
}

// measureKernels times rounds of SpMV and SpGEMM calls until the budget
// is spent, or exactly rounds rounds when rounds > 0.
func measureKernels(b *bench, in *hostInputs, parent, rounds int) (*kernelTimes, error) {
	tr := b.tr
	kt := &kernelTimes{spgemm: map[string][]time.Duration{}, products: map[string]*sparse.CSR{}}
	n := len(in.x)
	kt.yPar, kt.ySerial = make([]float32, n), make([]float32, n)
	kt.yRandPar, kt.yRandSerial = make([]float32, n), make([]float32, n)
	var err error
	call := func(name string, dst *[]time.Duration, f func() error) {
		if err != nil {
			return
		}
		kt.calls++
		d := tr.timed(name, parent, func() { err = f() })
		*dst = append(*dst, d)
	}
	start := time.Now()
	budget := time.Duration(b.seconds * float64(time.Second))
	for (rounds == 0 && time.Since(start) < budget) || kt.rounds < rounds || kt.rounds == 0 {
		kt.rounds++
		roundStart, callsBefore := time.Now(), kt.calls
		for i := 0; i < spmvPerRound; i++ {
			call("kernels.spmv.parallel", &kt.par, func() error { return kernels.SpMVCSRParallel(in.rabbitPP, in.x, kt.yPar) })
		}
		for i := 0; i < sidePerRound; i++ {
			call("kernels.spmv.parallel_random", &kt.rand, func() error { return kernels.SpMVCSRParallel(in.random, in.x, kt.yRandPar) })
			call("kernels.spmv.serial", &kt.serial, func() error { return kernels.SpMVCSR(in.rabbitPP, in.x, kt.ySerial) })
		}
		for _, mode := range spgemmModes {
			ts := kt.spgemm[mode]
			call("kernels.spgemm."+mode, &ts, func() error {
				c, err := runSpGEMM(mode, in.spgemmA, in.tiles)
				kt.products[mode] = c
				return err
			})
			kt.spgemm[mode] = ts
		}
		if err != nil {
			return nil, err
		}
		kt.roundSecsPerCall = append(kt.roundSecsPerCall, time.Since(roundStart).Seconds()/float64(kt.calls-callsBefore))
	}
	kt.wall = time.Since(start)
	return kt, kernels.SpMVCSR(in.random, in.x, kt.yRandSerial)
}

// checkKernels verifies the outputs: parallel SpMV is bit-identical to the
// serial kernel, and the three SpGEMM products are equal and match the
// symbolic phase's nnz and flop count. The checks are the workload's
// attempted operations; a failing kernel call ends the run instead.
func checkKernels(b *bench, in *hostInputs, kt *kernelTimes) {
	check := func(ok bool, format string, args ...any) {
		b.attempted++
		if !ok {
			b.fail(format, args...)
		}
	}
	check(bitsEqual(kt.yPar, kt.ySerial), "kernels-host: parallel SpMV (RABBIT++) differs from serial")
	check(bitsEqual(kt.yRandPar, kt.yRandSerial), "kernels-host: parallel SpMV (RANDOM) differs from serial")
	info, err := kernels.SpGEMMSymbolic(in.spgemmA, in.spgemmA)
	check(err == nil, "kernels-host: SpGEMMSymbolic: %v", err)
	check(info.Flops == countFlops(in.spgemmA), "kernels-host: symbolic flops %d != %d counted", info.Flops, countFlops(in.spgemmA))
	_, stats, err := kernels.SpGEMMClusterWise(in.spgemmA, in.spgemmA, in.tiles)
	check(err == nil && stats.Flops == info.Flops, "kernels-host: cluster-wise flops %d != symbolic %d", stats.Flops, info.Flops)
	ref := kt.products["dense"]
	for _, mode := range spgemmModes {
		c := kt.products[mode]
		check(c != nil && int64(c.NNZ()) == info.NNZC, "kernels-host: %s SpGEMM nnz differs from symbolic %d", mode, info.NNZC)
		check(c != nil && c.Equal(ref), "kernels-host: %s SpGEMM output differs from dense", mode)
	}
}

// countFlops is Σ over nonzeros a_ik of nnz(A row k) for C = A·A.
func countFlops(a *sparse.CSR) int64 {
	var f int64
	for _, k := range a.ColIndices {
		f += int64(a.RowLen(k))
	}
	return f
}

func bitsEqual(x, y []float32) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
			return false
		}
	}
	return true
}

// allocsPerCall counts heap allocations of one call, outside any timing.
func allocsPerCall(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func kernelsHost(b *bench) error {
	var in *hostInputs
	if err := b.setUp(3, func() { in = nil }, func(root int) error {
		in = setupKernels(b, root)
		return nil
	}); err != nil {
		return err
	}

	// The traced repetition runs as many rounds as the untraced one, so
	// their wall times differ by the tracing overhead alone.
	rounds := 0
	kt, err := tracedPhase(b, func(parent int) (*kernelTimes, error) {
		kt, err := measureKernels(b, in, parent, rounds)
		if err == nil {
			rounds = kt.rounds
		}
		return kt, err
	}, func(kt *kernelTimes) time.Duration { return kt.wall })
	if err != nil {
		return err
	}
	checkKernels(b, in, kt)

	par := durationsMs(kt.par)
	b.e2e["latency_ms"] = quietest(par, 0.5, 10)
	// Throughput of the whole kernel mix: calls completed per second of a
	// round, in the quietest window of rounds.
	b.e2e["ops_per_s"] = 1 / quietest(kt.roundSecsPerCall, 0.5, 10)
	fmt.Printf("kernels-host: %d parallel SpMVs on %d rows, %d nnz; p50 %.3f ms; SpGEMM %d rows, %d tiles\n",
		len(kt.par), in.rabbitPP.NumRows, in.rabbitPP.NNZ(), b.e2e["latency_ms"], in.spgemmA.NumRows, len(in.tiles))

	if b.tr == nil {
		return nil
	}
	L := b.layer
	L["gen.s"] = in.genS
	L["gen.nnz"] = in.genNNZ
	L["reorder.s"] = in.reorderS
	for tech, v := range in.reorderNs {
		L[reorderMetric(tech)] = v
	}
	L["sparse.permute.s"] = in.permuteS
	L["kernels.spmv.p90_ms"] = quietest(par, 0.9, 10)
	L["kernels.spmv.serial_ms"] = median(durationsMs(kt.serial))
	// Bytes computed from array sizes (rowptr, colidx, vals, x, y), not
	// measured traffic: cache misses are not counted.
	a := in.rabbitPP
	bytes := float64(4*(int64(a.NumRows)+1) + 8*int64(a.NNZ()) + 8*int64(a.NumRows))
	L["kernels.spmv.gbps_computed"] = bytes / (median(par) / 1e3) / 1e9
	L["kernels.spmv.random_over_rabbitpp"] = median(durationsMs(kt.rand)) / median(par)
	flops := float64(countFlops(in.spgemmA))
	L["kernels.spgemm.flops"] = flops
	for _, mode := range spgemmModes {
		t := median(durationsMs(kt.spgemm[mode]))
		L["spgemm_"+mode+"_ms"] = t
		L["kernels.spgemm."+mode+".ns_per_flop"] = t * 1e6 / flops
		mode := mode
		L["kernels.spgemm."+mode+".allocs"] = allocsPerCall(func() { _, _ = runSpGEMM(mode, in.spgemmA, in.tiles) })
	}
	return nil
}
