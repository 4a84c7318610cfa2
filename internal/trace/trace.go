// Package trace generates the line-granular memory reference streams of the
// sparse kernels the paper studies: SpMV over CSR (Algorithm 1), SpMV over
// COO, and SpMM over CSR with a dense right-hand side (Section VI-D).
//
// The reference stream is what the paper's L2 model consumes: streaming
// operands (the output vector, the CSR arrays, the dense result) appear
// once per touched cache line in program order, while the irregular input
// vector (or dense B rows for SpMM) is referenced on every nonzero — the
// access pattern whose locality matrix reordering improves.
package trace

import (
	"fmt"

	"repro/internal/sparse"
)

// ElemBytes is the size of every matrix element, index, and vector entry,
// matching the paper's 4-byte compulsory-traffic model (Section IV-B).
const ElemBytes = 4

// Layout assigns non-overlapping, line-aligned base addresses to the
// operand arrays of a kernel over an n×n matrix with nnz nonzeros and an
// optional dense operand of k columns.
type Layout struct {
	// LineBytes is the cache-line size; every base below is a multiple.
	LineBytes int64
	Y         int64 // output vector / dense C
	RowOff    int64 // CSR row offsets (or COO row indices)
	Col       int64 // column indices
	Val       int64 // values
	X         int64 // input vector / dense B
	// End is the first byte past the last operand — the total footprint.
	End int64
}

// NewLayout lays the operands out back to back with line alignment:
// Y, rowOffsets, coords, values, X. For SpMM, Y and X stand for the dense
// C and B arrays (k columns each).
func NewLayout(n, nnz int64, k int64, lineBytes int64) Layout {
	return newLayout(n, nnz, k, n+1, lineBytes)
}

// NewLayoutCOO lays out the COO kernel's operands: the row-index array has
// one entry per nonzero rather than n+1 offsets.
func NewLayoutCOO(n, nnz int64, lineBytes int64) Layout {
	return newLayout(n, nnz, 1, nnz, lineBytes)
}

func newLayout(n, nnz, k, rowEntries, lineBytes int64) Layout {
	if k < 1 {
		k = 1
	}
	align := func(x int64) int64 { return (x + lineBytes - 1) / lineBytes * lineBytes }
	l := Layout{LineBytes: lineBytes}
	cursor := int64(0)
	l.Y = cursor
	cursor = align(cursor + n*k*ElemBytes)
	l.RowOff = cursor
	cursor = align(cursor + rowEntries*ElemBytes)
	l.Col = cursor
	cursor = align(cursor + nnz*ElemBytes)
	l.Val = cursor
	cursor = align(cursor + nnz*ElemBytes)
	l.X = cursor
	cursor = align(cursor + n*k*ElemBytes)
	l.End = cursor
	return l
}

// line converts a byte address to a cache-line ID.
func (l Layout) line(addr int64) int64 { return addr / l.LineBytes }

// stream coalesces sequential accesses to one array: it emits when the
// line differs from the previous line of the same stream. Each new line is
// emitted twice, approximating the multiple 32-byte sector reads a GPU
// issues against a 128-byte line: a streamed line is filled once and then
// hit by its remaining sectors, so fully-consumed streaming fills are
// correctly not counted as dead lines (Table III's metric).
type stream struct {
	last int64
	emit func(int64)
}

func newStream(emit func(int64)) *stream { return &stream{last: -1, emit: emit} }

func (s *stream) access(line int64) {
	if line != s.last {
		s.last = line
		s.emit(line)
		s.emit(line)
	}
}

// csrStreams are the coalescing streams of one SpMV-CSR executor.
type csrStreams struct{ ro, col, val, y *stream }

func newCSRStreams(emit func(int64)) csrStreams {
	return csrStreams{newStream(emit), newStream(emit), newStream(emit), newStream(emit)}
}

// spmvRow emits one row of Algorithm 1: the row's two offsets, its coords
// and values, one X dereference per nonzero, and its Y entry.
func (s csrStreams) spmvRow(m *sparse.CSR, l Layout, row int64, emit func(int64)) {
	s.ro.access(l.line(l.RowOff + row*ElemBytes))
	s.ro.access(l.line(l.RowOff + (row+1)*ElemBytes))
	start, end := int64(m.RowOffsets[row]), int64(m.RowOffsets[row+1])
	for i := start; i < end; i++ {
		s.col.access(l.line(l.Col + i*ElemBytes))
		s.val.access(l.line(l.Val + i*ElemBytes))
		emit(l.line(l.X + int64(m.ColIndices[i])*ElemBytes))
	}
	s.y.access(l.line(l.Y + row*ElemBytes))
}

// SpMVCSR returns the reference stream of Algorithm 1 over the matrix:
// rowOffsets, coords, values, and Y stream sequentially; X is dereferenced
// per nonzero through the column index.
func SpMVCSR(m *sparse.CSR, lineBytes int64) func(emit func(int64)) {
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), 1, lineBytes)
	return func(emit func(int64)) { spmvCSR(m, l, emit, nil) }
}

// spmvCSR is the SpMV-CSR access loop. Like every kernel loop here, it
// serves both generator families through a per-row hook: when non-nil,
// the loop calls it with the matrix row whose work issues the accesses
// that follow (for COO, the row of each entry) before emitting them. The
// flat generators pass nil; the owned generators (owned.go) use it to tag
// every line with that row's device.
func spmvCSR(m *sparse.CSR, l Layout, emit, hook func(int64)) {
	s := newCSRStreams(emit)
	for row := int64(0); row < int64(m.NumRows); row++ {
		if hook != nil {
			hook(row)
		}
		s.spmvRow(m, l, row, emit)
	}
}

// SpMVCOO returns the reference stream of the COO SpMV kernel: the three
// triplet arrays stream; X is irregular per entry; Y follows the row index
// (streaming when the COO is row-sorted, irregular otherwise).
func SpMVCOO(c *sparse.COO, lineBytes int64) func(emit func(int64)) {
	l := NewLayoutCOO(int64(c.NumRows), int64(c.NNZ()), lineBytes)
	return func(emit func(int64)) { spmvCOO(c, l, emit, nil) }
}

// spmvCOO is the SpMV-COO access loop; its hook runs per entry.
func spmvCOO(c *sparse.COO, l Layout, emit, hook func(int64)) {
	rowS := newStream(emit)
	colS := newStream(emit)
	valS := newStream(emit)
	yS := newStream(emit)
	for k, row := range c.RowIdx {
		i := int64(k)
		if hook != nil {
			hook(int64(row))
		}
		rowS.access(l.line(l.RowOff + i*ElemBytes))
		colS.access(l.line(l.Col + i*ElemBytes))
		valS.access(l.line(l.Val + i*ElemBytes))
		emit(l.line(l.X + int64(c.ColIdx[k])*ElemBytes))
		yS.access(l.line(l.Y + int64(row)*ElemBytes))
	}
}

// SpMMCSR returns the reference stream of the SpMM kernel C = A·B with a
// dense |N|×k B: the CSR arrays and C stream; every nonzero dereferences
// the full k-element row of B (k·4 bytes, possibly spanning several
// lines) — the irregular traffic that scales with k (Table IV).
func SpMMCSR(m *sparse.CSR, k int64, lineBytes int64) func(emit func(int64)) {
	if k < 1 {
		panic(fmt.Sprintf("trace: SpMM with k = %d", k))
	}
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), k, lineBytes)
	return func(emit func(int64)) { spmmCSR(m, k, l, emit, nil) }
}

// spmmCSR is the SpMM-CSR access loop.
func spmmCSR(m *sparse.CSR, k int64, l Layout, emit, hook func(int64)) {
	rowBytes := k * ElemBytes
	roS := newStream(emit)
	colS := newStream(emit)
	valS := newStream(emit)
	cS := newStream(emit)
	for row := int64(0); row < int64(m.NumRows); row++ {
		if hook != nil {
			hook(row)
		}
		roS.access(l.line(l.RowOff + row*ElemBytes))
		roS.access(l.line(l.RowOff + (row+1)*ElemBytes))
		start, end := int64(m.RowOffsets[row]), int64(m.RowOffsets[row+1])
		for i := start; i < end; i++ {
			colS.access(l.line(l.Col + i*ElemBytes))
			valS.access(l.line(l.Val + i*ElemBytes))
			// Touch every line spanned by B's k-element row.
			bAddr := l.X + int64(m.ColIndices[i])*rowBytes
			for ln, last := l.line(bAddr), l.line(bAddr+rowBytes-1); ln <= last; ln++ {
				emit(ln)
			}
		}
		// C row write streams across its spanned lines.
		cBase := l.Y + row*rowBytes
		for ln, last := l.line(cBase), l.line(cBase+rowBytes-1); ln <= last; ln++ {
			cS.access(ln)
		}
	}
}
