// Device-attributed reference streams for the multi-device cache model
// (internal/multidev): each kernel's trace is re-emitted as (device, line)
// pairs, where the device is the compute tile that executes the access —
// the owner of the outer-loop row driving it — alongside a line→home map
// classifying which device each cache line's data is homed on. An owned
// stream runs the flat generator's own loop with a row hook that sets the
// current device before each row's accesses, so its line sequence is the
// flat sequence (checked by TestOwnedMatchesUnowned and the corpus-scale
// K=1 differential in internal/experiments), and a single-device owned
// simulation reproduces the flat path exactly.
package trace

import (
	"fmt"

	"repro/internal/sparse"
)

// OwnedTrace bundles a device-attributed reference stream with the home
// map of its address space.
type OwnedTrace struct {
	// Trace emits (device, line) pairs in program order. The line
	// sequence is bit-identical to the unowned generator over the same
	// operands; the device tag is the owner of the row (or nonzero, for
	// COO) whose execution issues the access.
	Trace func(emit func(dev int32, line int64))
	// Home maps every line ID of the layout (index = line ID, length =
	// footprint in lines) to the device the line's data is homed on:
	// the owner of the line's first element. Operand arrays are
	// distributed row-wise by the same owner labels that attribute the
	// stream, so X[v] and Y[v] live with vertex v's owner and a row's
	// CSR slices live with that row's owner.
	Home []int32
}

// owned drives a kernel loop with a row hook that tags every line with
// the device owning the row whose work issues it.
func owned(owner []int32, loop func(emit, hook func(int64))) func(emit func(dev int32, line int64)) {
	return func(emit func(int32, int64)) {
		var dev int32
		loop(func(line int64) { emit(dev, line) }, func(row int64) { dev = owner[row] })
	}
}

// homeBuilder fills a line→device table region by region. Claims must be
// issued in ascending address order; the first element touching a line
// decides its home (later claims of an already-claimed line are ignored),
// which makes the map deterministic and independent of how many elements
// share a line.
type homeBuilder struct {
	lineBytes int64
	next      int64 // first unclaimed line
	home      []int32
}

func newHomeBuilder(end, lineBytes int64) *homeBuilder {
	return &homeBuilder{lineBytes: lineBytes, home: make([]int32, end/lineBytes)}
}

// claim assigns dev to the not-yet-claimed lines covering the byte range
// [addr, addr+bytes).
func (h *homeBuilder) claim(addr, bytes int64, dev int32) {
	if bytes <= 0 {
		return
	}
	lo := addr / h.lineBytes
	hi := (addr + bytes - 1) / h.lineBytes
	if lo < h.next {
		lo = h.next
	}
	for ln := lo; ln <= hi; ln++ {
		h.home[ln] = dev
	}
	if hi+1 > h.next {
		h.next = hi + 1
	}
}

// claimRows homes element r of the array at base, bytes wide, on owner[r].
func (h *homeBuilder) claimRows(base, bytes int64, owner []int32) {
	for r, dev := range owner {
		h.claim(base+int64(r)*bytes, bytes, dev)
	}
}

// claimCSR homes a CSR matrix's arrays row by row: row r's offset entry
// and its coords/values slices go to owner[r], the closing offset to the
// last row's owner. off holds the len(owner)+1 row offsets.
func claimCSR[T int32 | int64](h *homeBuilder, owner []int32, off []T, roBase, colBase, valBase int64) {
	h.claimRows(roBase, ElemBytes, owner)
	if n := len(owner); n > 0 {
		h.claim(roBase+int64(n)*ElemBytes, ElemBytes, owner[n-1])
	}
	for _, base := range []int64{colBase, valBase} {
		for r, dev := range owner {
			lo, hi := int64(off[r]), int64(off[r+1])
			h.claim(base+lo*ElemBytes, (hi-lo)*ElemBytes, dev)
		}
	}
}

// checkOwner validates an owner vector against the expected vertex count.
func checkOwner(owner []int32, n int32, kernel string) {
	if len(owner) != int(n) {
		panic(fmt.Sprintf("trace: %s with %d owner labels for %d rows", kernel, len(owner), n))
	}
}

// SpMVCSROwned returns the device-attributed CSR SpMV reference stream:
// SpMVCSR's loop with every access of row r's work tagged owner[r], plus
// the layout's home map (Y[r], the row-offset entry, and row r's
// coords/values slices are homed on owner[r]; X[v] on owner[v]). owner
// must hold one device label per row.
func SpMVCSROwned(m *sparse.CSR, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, m.NumRows, "SpMVCSROwned")
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), 1, lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	h.claimRows(l.Y, ElemBytes, owner)
	claimCSR(h, owner, m.RowOffsets, l.RowOff, l.Col, l.Val)
	h.claimRows(l.X, ElemBytes, owner)
	return OwnedTrace{Home: h.home, Trace: owned(owner, func(emit, hook func(int64)) {
		spmvCSR(m, l, emit, hook)
	})}
}

// SpMVCOOOwned returns the device-attributed COO SpMV reference stream:
// SpMVCOO's loop with nonzero k's accesses tagged owner[RowIdx[k]]. The
// triplet arrays are homed per entry with the entry's row owner; X and Y
// per vertex. owner must hold one device label per row.
func SpMVCOOOwned(c *sparse.COO, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, c.NumRows, "SpMVCOOOwned")
	l := NewLayoutCOO(int64(c.NumRows), int64(c.NNZ()), lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	h.claimRows(l.Y, ElemBytes, owner)
	for _, base := range []int64{l.RowOff, l.Col, l.Val} {
		for k, row := range c.RowIdx {
			h.claim(base+int64(k)*ElemBytes, ElemBytes, owner[row])
		}
	}
	h.claimRows(l.X, ElemBytes, owner)
	return OwnedTrace{Home: h.home, Trace: owned(owner, func(emit, hook func(int64)) {
		spmvCOO(c, l, emit, hook)
	})}
}

// SpMMCSROwned returns the device-attributed SpMM reference stream:
// SpMMCSR's loop with row r's work tagged owner[r]. The dense C and B rows
// are homed with their matrix row's owner. owner must hold one device
// label per row.
func SpMMCSROwned(m *sparse.CSR, k int64, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, m.NumRows, "SpMMCSROwned")
	if k < 1 {
		panic(fmt.Sprintf("trace: SpMM with k = %d", k))
	}
	l := NewLayout(int64(m.NumRows), int64(m.NNZ()), k, lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	h.claimRows(l.Y, k*ElemBytes, owner)
	claimCSR(h, owner, m.RowOffsets, l.RowOff, l.Col, l.Val)
	h.claimRows(l.X, k*ElemBytes, owner)
	return OwnedTrace{Home: h.home, Trace: owned(owner, func(emit, hook func(int64)) {
		spmmCSR(m, k, l, emit, hook)
	})}
}

// SpGEMMOwned returns the device-attributed row-wise Gustavson SpGEMM
// reference stream of C = A·B: SpGEMM's loop with A row r's work —
// including its B-row dereferences — and C row r tagged owner[r]. A's and
// C's row slices are homed with owner[row]; B's row-offset entry and row
// slices with owner[k] of the B row they store, so a cross-device
// A-nonzero turns its B-row fetch into inter-device traffic exactly as a
// partitioned SpGEMM would. Requires a.NumRows == b.NumRows (the square
// C = A·A products the experiments run); owner holds one label per row.
func SpGEMMOwned(a, b *sparse.CSR, cRowNNZ []int32, owner []int32, lineBytes int64) OwnedTrace {
	checkOwner(owner, a.NumRows, "SpGEMMOwned")
	if a.NumRows != b.NumRows {
		panic(fmt.Sprintf("trace: SpGEMMOwned with %d A rows but %d B rows", a.NumRows, b.NumRows))
	}
	l, cOff := spgemmLayout(a, b, cRowNNZ, lineBytes)
	h := newHomeBuilder(l.End, lineBytes)
	claimCSR(h, owner, a.RowOffsets, l.ARowOff, l.ACol, l.AVal)
	claimCSR(h, owner, b.RowOffsets, l.BRowOff, l.BCol, l.BVal)
	claimCSR(h, owner, cOff, l.CRowOff, l.CCol, l.CVal)
	return OwnedTrace{Home: h.home, Trace: owned(owner, func(emit, hook func(int64)) {
		spgemmStream(a, b, cOff, l, nil, emit, hook)
	})}
}
