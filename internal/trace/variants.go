package trace

import (
	"repro/internal/sparse"
)

// SpMVCSRInterleaved models the GPU's concurrent execution more closely
// than the serial row-order trace: the rows are partitioned round-robin
// into `groups` thread groups (CTAs), and the reference stream interleaves
// one row from each group in turn. The L2 of a real GPU observes exactly
// this kind of mixed stream from thousands of concurrent threads. The
// ablation experiment uses it to show the paper's conclusions are robust
// to the interleaving assumption.
func SpMVCSRInterleaved(m *sparse.CSR, lineBytes int64, groups int32) func(emit func(int64)) {
	if groups < 1 {
		groups = 1
	}
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), 1, lineBytes)
	return func(emit func(int64)) {
		// Per-group streams: each group walks its own row subsequence, so
		// streaming coalescing happens per group, as it would per SM.
		rows := make([]int64, groups)
		streams := make([]csrStreams, groups)
		for g := range streams {
			rows[g] = int64(g)
			streams[g] = newCSRStreams(emit)
		}
		n := int64(m.NumRows)
		for remaining := n; remaining > 0; {
			for g := range streams {
				if rows[g] >= n {
					continue
				}
				streams[g].spmvRow(m, l, rows[g], emit)
				rows[g] += int64(groups)
				remaining--
			}
		}
	}
}

// SpMVCSRTiled models the 1-D tiled SpMV the paper's related work
// discusses (and its conclusion flags as future work for RABBIT++): the
// column space is split into tiles of `tileCols` columns, and the kernel
// makes one pass over the matrix per tile touching only the nonzeros whose
// column falls in the tile. Irregular accesses then stay within one tile's
// slice of the input vector, trading extra streaming passes of the CSR
// arrays for a bounded irregular footprint.
func SpMVCSRTiled(m *sparse.CSR, lineBytes int64, tileCols int32) func(emit func(int64)) {
	if tileCols <= 0 {
		tileCols = m.NumCols
	}
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), 1, lineBytes)
	return func(emit func(int64)) {
		for tileLo := int32(0); tileLo < m.NumCols || tileLo == 0; tileLo += tileCols {
			tileHi := tileLo + tileCols
			roS := newStream(emit)
			colS := newStream(emit)
			valS := newStream(emit)
			yS := newStream(emit)
			for row := int64(0); row < int64(m.NumRows); row++ {
				roS.access(l.line(l.RowOff + row*ElemBytes))
				roS.access(l.line(l.RowOff + (row+1)*ElemBytes))
				start, end := int64(m.RowOffsets[row]), int64(m.RowOffsets[row+1])
				touched := false
				for i := start; i < end; i++ {
					c := m.ColIndices[i]
					if c < tileLo || c >= tileHi {
						continue
					}
					// The tile pass still streams over the coords to find
					// its nonzeros (as compressed tiled formats do per
					// tile after preprocessing, we charge only the
					// touched entries).
					colS.access(l.line(l.Col + i*ElemBytes))
					valS.access(l.line(l.Val + i*ElemBytes))
					emit(l.line(l.X + int64(c)*ElemBytes))
					touched = true
				}
				if touched {
					yS.access(l.line(l.Y + row*ElemBytes))
				}
			}
			if m.NumCols == 0 {
				break
			}
		}
	}
}

// SpMVCSC returns the reference stream of the pull-style CSC SpMV kernel:
// colOffsets, row indices, values, and X stream sequentially (one X element
// per column), while the *output* vector Y is scattered through the row
// index of every nonzero — the mirror image of the CSR kernel's input
// irregularity. Reordering helps both identically because the symmetric
// permutation localizes rows and columns together.
func SpMVCSC(m *sparse.CSR, lineBytes int64) func(emit func(int64)) {
	// The CSC of m has the same array shapes as the CSR of mᵀ.
	t := m.Transpose()
	l := NewLayout(int64(t.NumRows), int64(t.NNZ()), 1, lineBytes)
	return func(emit func(int64)) {
		coS := newStream(emit)
		rowS := newStream(emit)
		valS := newStream(emit)
		xS := newStream(emit)
		for col := int64(0); col < int64(t.NumRows); col++ {
			coS.access(l.line(l.RowOff + col*ElemBytes))
			coS.access(l.line(l.RowOff + (col+1)*ElemBytes))
			xS.access(l.line(l.X + col*ElemBytes))
			start, end := int64(t.RowOffsets[col]), int64(t.RowOffsets[col+1])
			for i := start; i < end; i++ {
				rowS.access(l.line(l.Col + i*ElemBytes))
				valS.access(l.line(l.Val + i*ElemBytes))
				emit(l.line(l.Y + int64(t.ColIndices[i])*ElemBytes))
			}
		}
	}
}
