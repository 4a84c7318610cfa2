package trace

import (
	"fmt"

	"repro/internal/community"
	"repro/internal/sparse"
)

// SpGEMMLayout assigns non-overlapping, line-aligned base addresses to the
// nine operand arrays of C = A·B over CSR: row offsets, column indices,
// and values for each of A, B, and C.
type SpGEMMLayout struct {
	// LineBytes is the cache-line size; every base below is a multiple.
	LineBytes int64
	// ARowOff, ACol, AVal are the CSR arrays of the A operand.
	ARowOff, ACol, AVal int64
	// BRowOff, BCol, BVal are the CSR arrays of the B operand.
	BRowOff, BCol, BVal int64
	// CRowOff, CCol, CVal are the CSR arrays of the output C.
	CRowOff, CCol, CVal int64
	// End is the first byte past the last operand — the total footprint.
	End int64
}

// NewSpGEMMLayout lays the three CSR matrices out back to back with line
// alignment: A's arrays, then B's, then C's. cNNZ comes from the symbolic
// phase (kernels.SpGEMMSymbolic) — C's extent is data-dependent.
func NewSpGEMMLayout(aRows, aNNZ, bRows, bNNZ, cNNZ, lineBytes int64) SpGEMMLayout {
	align := func(x int64) int64 { return (x + lineBytes - 1) / lineBytes * lineBytes }
	l := SpGEMMLayout{LineBytes: lineBytes}
	cursor := int64(0)
	next := func(entries int64) int64 {
		base := cursor
		cursor = align(cursor + entries*ElemBytes)
		return base
	}
	l.ARowOff = next(aRows + 1)
	l.ACol = next(aNNZ)
	l.AVal = next(aNNZ)
	l.BRowOff = next(bRows + 1)
	l.BCol = next(bNNZ)
	l.BVal = next(bNNZ)
	l.CRowOff = next(aRows + 1)
	l.CCol = next(cNNZ)
	l.CVal = next(cNNZ)
	l.End = cursor
	return l
}

// line converts a byte address to a cache-line ID.
func (l SpGEMMLayout) line(addr int64) int64 { return addr / l.LineBytes }

// SpGEMM returns the row-wise Gustavson reference stream of C = A·B:
// A's arrays and C's arrays stream sequentially, while every A-nonzero
// dereferences one row of B — two row-offset entries plus the row's
// column/value segments — making B the irregular operand whose locality
// community reordering improves. cRowNNZ is the symbolic per-row output
// size (kernels.SpGEMMSymbolic's RowNNZ), needed to lay out and stream
// the data-dependent C arrays.
func SpGEMM(a, b *sparse.CSR, cRowNNZ []int32, lineBytes int64) func(emit func(int64)) {
	l, cOff := spgemmLayout(a, b, cRowNNZ, lineBytes)
	return func(emit func(int64)) { spgemmStream(a, b, cOff, l, nil, emit, nil) }
}

// SpGEMMCluster returns the cluster-wise reference stream of C = A·B: the
// Gustavson outer loop is tiled by the given contiguous row blocks, each
// distinct B row is referenced once per tile (the tile's accumulator and
// already-loaded B rows are modeled as cache-resident for the tile's
// duration), and the tile's C rows spill — stream out — at tile end. The
// row-wise stream is the degenerate case of one-row tiles.
func SpGEMMCluster(a, b *sparse.CSR, cRowNNZ []int32, tiles []community.Shard, lineBytes int64) func(emit func(int64)) {
	if tiles == nil {
		tiles = community.Shards(a.NumRows)
	}
	l, cOff := spgemmLayout(a, b, cRowNNZ, lineBytes)
	return func(emit func(int64)) { spgemmStream(a, b, cOff, l, tiles, emit, nil) }
}

// spgemmLayout lays out C = A·B and returns C's row offsets, the prefix
// sums of the symbolic row sizes.
func spgemmLayout(a, b *sparse.CSR, cRowNNZ []int32, lineBytes int64) (SpGEMMLayout, []int64) {
	if len(cRowNNZ) != int(a.NumRows) {
		panic(fmt.Sprintf("trace: SpGEMM with %d C row sizes for %d rows", len(cRowNNZ), a.NumRows))
	}
	cOff := make([]int64, int(a.NumRows)+1)
	for i, nnz := range cRowNNZ {
		cOff[i+1] = cOff[i] + int64(nnz)
	}
	return NewSpGEMMLayout(int64(a.NumRows), int64(a.NNZ()), int64(b.NumRows), int64(b.NNZ()), cOff[a.NumRows], lineBytes), cOff
}

// spgemmStream is the one SpGEMM loop: nil tiles means row-wise (every row its
// own tile, with no dedup state needed because a CSR row's column indices
// are already distinct). The hook sees each A row before its work and
// again before its C row streams out.
func spgemmStream(a, b *sparse.CSR, cOff []int64, l SpGEMMLayout, tiles []community.Shard, emit, hook func(int64)) {
	aRoS := newStream(emit)
	aColS := newStream(emit)
	aValS := newStream(emit)
	cRoS := newStream(emit)
	cColS := newStream(emit)
	cValS := newStream(emit)
	// seen[k] == gen marks B row k as already loaded this tile.
	var seen []int64
	if tiles != nil {
		seen = make([]int64, b.NumRows)
	}
	tile := func(lo, hi int32, gen int64) {
		for row := lo; row < hi; row++ {
			if hook != nil {
				hook(int64(row))
			}
			aRoS.access(l.line(l.ARowOff + int64(row)*ElemBytes))
			aRoS.access(l.line(l.ARowOff + int64(row+1)*ElemBytes))
			start, end := int64(a.RowOffsets[row]), int64(a.RowOffsets[row+1])
			for i := start; i < end; i++ {
				aColS.access(l.line(l.ACol + i*ElemBytes))
				aValS.access(l.line(l.AVal + i*ElemBytes))
				k := int64(a.ColIndices[i])
				// The B row dereference: two offset entries, then the
				// row's column/value segments if not tile-resident.
				emit(l.line(l.BRowOff + k*ElemBytes))
				emit(l.line(l.BRowOff + (k+1)*ElemBytes))
				if seen != nil {
					if seen[k] == gen {
						continue
					}
					seen[k] = gen
				}
				bs, be := int64(b.RowOffsets[k]), int64(b.RowOffsets[k+1])
				if be == bs {
					continue
				}
				for ln, last := l.line(l.BCol+bs*ElemBytes), l.line(l.BCol+be*ElemBytes-1); ln <= last; ln++ {
					emit(ln)
				}
				for ln, last := l.line(l.BVal+bs*ElemBytes), l.line(l.BVal+be*ElemBytes-1); ln <= last; ln++ {
					emit(ln)
				}
			}
		}
		// Tile accumulators spill: the tile's C rows stream out.
		for row := lo; row < hi; row++ {
			if hook != nil {
				hook(int64(row))
			}
			cRoS.access(l.line(l.CRowOff + int64(row)*ElemBytes))
			cRoS.access(l.line(l.CRowOff + int64(row+1)*ElemBytes))
			for i := cOff[row]; i < cOff[row+1]; i++ {
				cColS.access(l.line(l.CCol + i*ElemBytes))
				cValS.access(l.line(l.CVal + i*ElemBytes))
			}
		}
	}
	if tiles == nil {
		for row := int32(0); row < a.NumRows; row++ {
			tile(row, row+1, 0)
		}
		return
	}
	for t, tl := range tiles {
		tile(tl.Lo, tl.Hi, int64(t)+1)
	}
}
