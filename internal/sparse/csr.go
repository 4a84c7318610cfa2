// Package sparse provides compressed sparse matrix representations (CSR and
// COO), a permutation type, symmetric reordering, structural statistics, and
// MatrixMarket I/O. It is the substrate every other package in this
// repository builds on.
//
// Indices are int32 and values are float32 throughout. This matches the
// 4-byte elements assumed by the paper's compulsory-traffic model
// (Section IV-B): rowOffsets, coords, and values all move 4 bytes per entry.
package sparse

import (
	"errors"
	"fmt"
	"math"
)

// CSR is a sparse matrix in Compressed Sparse Row format.
//
// RowOffsets has NumRows+1 entries; the column indices and values of row r
// live in ColIndices[RowOffsets[r]:RowOffsets[r+1]] (and the parallel slice
// of Values). Column indices within a row are kept sorted and unique by all
// constructors in this package.
type CSR struct {
	NumRows    int32     // row count; RowOffsets has NumRows+1 entries
	NumCols    int32     // column count; every ColIndices entry is < NumCols
	RowOffsets []int32   // row r's entries span [RowOffsets[r], RowOffsets[r+1])
	ColIndices []int32   // column index per nonzero, sorted and unique within a row
	Values     []float32 // value per nonzero, parallel to ColIndices
}

// NNZ returns the number of stored nonzeros.
func (m *CSR) NNZ() int { return len(m.ColIndices) }

// IsSquare reports whether the matrix has as many rows as columns.
func (m *CSR) IsSquare() bool { return m.NumRows == m.NumCols }

// Row returns the column indices and values of row r as sub-slices of the
// matrix storage. The caller must not modify them.
func (m *CSR) Row(r int32) ([]int32, []float32) {
	lo, hi := m.RowOffsets[r], m.RowOffsets[r+1]
	return m.ColIndices[lo:hi], m.Values[lo:hi]
}

// RowLen returns the number of nonzeros in row r.
func (m *CSR) RowLen(r int32) int32 { return m.RowOffsets[r+1] - m.RowOffsets[r] }

// Validate checks the structural invariants of the CSR format: offset
// monotonicity, index bounds, sorted and duplicate-free rows, and slice
// length consistency. It returns a descriptive error for the first violation
// found.
func (m *CSR) Validate() error {
	if m.NumRows < 0 || m.NumCols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.NumRows, m.NumCols)
	}
	if len(m.RowOffsets) != int(m.NumRows)+1 {
		return fmt.Errorf("sparse: RowOffsets has %d entries, want %d", len(m.RowOffsets), m.NumRows+1)
	}
	if m.RowOffsets[0] != 0 {
		return fmt.Errorf("sparse: RowOffsets[0] = %d, want 0", m.RowOffsets[0])
	}
	if len(m.Values) != len(m.ColIndices) {
		return fmt.Errorf("sparse: %d values for %d column indices", len(m.Values), len(m.ColIndices))
	}
	if int(m.RowOffsets[m.NumRows]) != len(m.ColIndices) {
		return fmt.Errorf("sparse: RowOffsets[last] = %d, want nnz = %d", m.RowOffsets[m.NumRows], len(m.ColIndices))
	}
	for r := int32(0); r < m.NumRows; r++ {
		if m.RowOffsets[r] > m.RowOffsets[r+1] {
			return fmt.Errorf("sparse: RowOffsets not monotone at row %d", r)
		}
		// Bounds must hold before Row may slice: a locally monotone prefix
		// can still point past nnz when a later offset decreases.
		if int(m.RowOffsets[r+1]) > len(m.ColIndices) {
			return fmt.Errorf("sparse: RowOffsets[%d] = %d exceeds nnz %d", r+1, m.RowOffsets[r+1], len(m.ColIndices))
		}
		cols, _ := m.Row(r)
		for k, c := range cols {
			if c < 0 || c >= m.NumCols {
				return fmt.Errorf("sparse: column index %d out of range in row %d", c, r)
			}
			if k > 0 && cols[k-1] >= c {
				return fmt.Errorf("sparse: row %d not strictly sorted at position %d", r, k)
			}
		}
	}
	return nil
}

// Clone returns a deep copy of the matrix.
func (m *CSR) Clone() *CSR {
	c := &CSR{
		NumRows:    m.NumRows,
		NumCols:    m.NumCols,
		RowOffsets: make([]int32, len(m.RowOffsets)),
		ColIndices: make([]int32, len(m.ColIndices)),
		Values:     make([]float32, len(m.Values)),
	}
	copy(c.RowOffsets, m.RowOffsets)
	copy(c.ColIndices, m.ColIndices)
	copy(c.Values, m.Values)
	return c
}

// Equal reports whether the two matrices have identical shape, pattern, and
// values.
func (m *CSR) Equal(o *CSR) bool {
	if !m.EqualPattern(o) {
		return false
	}
	for i, v := range m.Values {
		if o.Values[i] != v {
			return false
		}
	}
	return true
}

// EqualPattern reports whether the two matrices have identical shape and
// nonzero structure, ignoring values.
func (m *CSR) EqualPattern(o *CSR) bool {
	if m.NumRows != o.NumRows || m.NumCols != o.NumCols || len(m.ColIndices) != len(o.ColIndices) {
		return false
	}
	for i, v := range m.RowOffsets {
		if o.RowOffsets[i] != v {
			return false
		}
	}
	for i, v := range m.ColIndices {
		if o.ColIndices[i] != v {
			return false
		}
	}
	return true
}

// Transpose returns the transpose of the matrix as a new CSR. Rows of the
// result are sorted because the counting transpose visits source rows in
// order.
func (m *CSR) Transpose() *CSR {
	t := &CSR{
		NumRows:    m.NumCols,
		NumCols:    m.NumRows,
		RowOffsets: make([]int32, int(m.NumCols)+1),
		ColIndices: make([]int32, len(m.ColIndices)),
		Values:     make([]float32, len(m.Values)),
	}
	for _, c := range m.ColIndices {
		t.RowOffsets[c+1]++
	}
	for i := int32(0); i < m.NumCols; i++ {
		t.RowOffsets[i+1] += t.RowOffsets[i]
	}
	cursor := make([]int32, m.NumCols)
	copy(cursor, t.RowOffsets[:m.NumCols])
	for r := int32(0); r < m.NumRows; r++ {
		lo, hi := m.RowOffsets[r], m.RowOffsets[r+1]
		for k := lo; k < hi; k++ {
			c := m.ColIndices[k]
			dst := cursor[c]
			cursor[c]++
			t.ColIndices[dst] = r
			t.Values[dst] = m.Values[k]
		}
	}
	return t
}

// IsSymmetric reports whether the matrix pattern and values are symmetric.
// It requires a square matrix and runs in O(nnz) time and space.
func (m *CSR) IsSymmetric() bool {
	if !m.IsSquare() {
		return false
	}
	return m.Equal(m.Transpose())
}

// IsPatternSymmetric reports whether the nonzero pattern is symmetric,
// ignoring values.
func (m *CSR) IsPatternSymmetric() bool {
	if !m.IsSquare() {
		return false
	}
	return m.EqualPattern(m.Transpose())
}

// Symmetrize returns A ∪ Aᵀ as a new matrix: the pattern is the union of the
// pattern and its transpose, and coincident entries keep the value from A
// (transposed-only entries take the transposed value). Matrix reordering
// techniques that perform community detection treat the matrix as an
// undirected graph, which is exactly the symmetrized pattern.
func (m *CSR) Symmetrize() *CSR {
	if !m.IsSquare() {
		panic("sparse: Symmetrize requires a square matrix")
	}
	t := m.Transpose()
	out := &CSR{
		NumRows:    m.NumRows,
		NumCols:    m.NumCols,
		RowOffsets: make([]int32, int(m.NumRows)+1),
	}
	// Merge the sorted rows of m and t.
	est := len(m.ColIndices) + len(t.ColIndices)
	out.ColIndices = make([]int32, 0, est)
	out.Values = make([]float32, 0, est)
	for r := int32(0); r < m.NumRows; r++ {
		ac, av := m.Row(r)
		bc, bv := t.Row(r)
		i, j := 0, 0
		for i < len(ac) || j < len(bc) {
			switch {
			case j >= len(bc) || (i < len(ac) && ac[i] < bc[j]):
				out.ColIndices = append(out.ColIndices, ac[i])
				out.Values = append(out.Values, av[i])
				i++
			case i >= len(ac) || bc[j] < ac[i]:
				out.ColIndices = append(out.ColIndices, bc[j])
				out.Values = append(out.Values, bv[j])
				j++
			default: // equal: keep A's value
				out.ColIndices = append(out.ColIndices, ac[i])
				out.Values = append(out.Values, av[i])
				i++
				j++
			}
		}
		out.RowOffsets[r+1] = mustInt32(len(out.ColIndices))
	}
	return out
}

// PermuteSymmetric applies the symmetric permutation P·A·Pᵀ: entry (i, j)
// of the input appears at (p[i], p[j]) in the result. The permutation maps
// old IDs to new IDs, which is the convention used by every reordering
// technique in this repository.
//
// It runs in O(n + nnz) time with no comparisons, as a double transpose:
// the entries are first scattered into buckets keyed by their new column,
// each recording its new row, and the buckets are then swept in ascending
// column order appending every entry to its new row, so each output row
// comes out sorted without a sort.
func (m *CSR) PermuteSymmetric(p Permutation) *CSR {
	if !m.IsSquare() {
		panic("sparse: PermuteSymmetric requires a square matrix")
	}
	if len(p) != int(m.NumRows) {
		panic(fmt.Sprintf("sparse: permutation length %d for %d rows", len(p), m.NumRows))
	}
	n := m.NumRows
	nnz := len(m.ColIndices)
	out := &CSR{
		NumRows:    n,
		NumCols:    n,
		RowOffsets: make([]int32, int(n)+1),
		ColIndices: make([]int32, nnz),
		Values:     make([]float32, nnz),
	}
	// New row p[r] holds old row r; colStart[c+1] counts the entries of
	// new column c, and both count arrays are then prefix-summed.
	colStart := make([]int32, int(n)+1)
	for r := int32(0); r < n; r++ {
		out.RowOffsets[p[r]+1] = m.RowLen(r)
	}
	for _, c := range m.ColIndices {
		colStart[p[c]+1]++
	}
	for i := int32(0); i < n; i++ {
		out.RowOffsets[i+1] += out.RowOffsets[i]
		colStart[i+1] += colStart[i]
	}
	// Scatter every entry into the bucket of its new column, packed as
	// new row (high half) and value bits (low half) so each entry costs
	// one scattered write; colStart[c] advances until it marks the end of
	// bucket c.
	bucket := make([]uint64, nnz)
	for r := int32(0); r < n; r++ {
		row := uint64(p[r]) << 32
		for k := m.RowOffsets[r]; k < m.RowOffsets[r+1]; k++ {
			c := p[m.ColIndices[k]]
			bucket[colStart[c]] = row | uint64(math.Float32bits(m.Values[k]))
			colStart[c]++
		}
	}
	// Sweep the buckets in ascending column order and append each entry to
	// its new row, which therefore fills in sorted column order.
	rowNext := make([]int32, n)
	copy(rowNext, out.RowOffsets[:n])
	k := int32(0)
	for c := int32(0); c < n; c++ {
		for ; k < colStart[c]; k++ {
			r := bucket[k] >> 32
			dst := rowNext[r]
			rowNext[r]++
			out.ColIndices[dst] = c
			out.Values[dst] = math.Float32frombits(uint32(bucket[k]))
		}
	}
	return out
}

// ErrNotSquare is returned by operations that require square matrices.
var ErrNotSquare = errors.New("sparse: matrix is not square")
