package sparse_test

import (
	"testing"

	"repro/internal/check"
	"repro/internal/gen"
	"repro/internal/sparse"
)

// fuzzSquare decodes fuzz bytes into an n×n matrix (duplicates merged by
// COO) and a seeded random permutation of [0, n).
func fuzzSquare(nRaw uint8, seed uint64, data []byte) (*sparse.CSR, sparse.Permutation) {
	n := int32(nRaw % 64)
	coo := sparse.NewCOO(n, n, len(data)/2)
	for i := 0; n > 0 && i+1 < len(data); i += 2 {
		coo.Add(int32(data[i])%n, int32(data[i+1])%n, float32(i+1))
	}
	return coo.ToCSR(), sparse.Permutation(gen.NewRNG(seed).Perm(n))
}

// FuzzPermuteSymmetric checks the linear-time PermuteSymmetric against
// the CSR contract (check.ValidCSR, an independent validator) and against
// the sort-based oracle.
func FuzzPermuteSymmetric(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte{})
	f.Add(uint8(5), uint64(2), []byte{0, 1, 1, 0, 4, 4, 2, 3})
	f.Add(uint8(9), uint64(3), []byte{3, 0, 3, 1, 3, 2, 3, 3, 3, 4, 3, 5, 3, 6, 3, 7, 3, 8})
	f.Fuzz(func(t *testing.T, nRaw uint8, seed uint64, data []byte) {
		if len(data) > 2048 {
			data = data[:2048]
		}
		m, p := fuzzSquare(nRaw, seed, data)
		got := m.PermuteSymmetric(p)
		if err := check.ValidCSR(got); err != nil {
			t.Fatalf("PermuteSymmetric produced an invalid CSR: %v", err)
		}
		if want := sparse.PermuteSymmetricSorted(m, p); !got.Equal(want) {
			t.Fatalf("PermuteSymmetric differs from the sort oracle on n=%d perm=%v", m.NumRows, p)
		}
	})
}

// permuted keeps the benchmark's result alive so the call is not elided.
var permuted *sparse.CSR

// BenchmarkPermuteSymmetric measures the permutation layer alone on the
// 16K-node planted partition the root benchmarks use, under a random
// ordering (the worst case for locality).
func BenchmarkPermuteSymmetric(b *testing.B) {
	m := gen.PlantedPartition{Nodes: 16384, Communities: 128, AvgDegree: 16, Mu: 0.2}.Generate(1)
	p := sparse.Permutation(gen.NewRNG(7).Perm(m.NumRows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		permuted = m.PermuteSymmetric(p)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(m.NNZ()), "ns/nnz")
}
