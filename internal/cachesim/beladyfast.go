package cachesim

import "math"

// This file is Belady's fast path. The reference SimulateBelady needs the
// whole trace as one contiguous []int64 plus a same-length next-use array
// and a Go map of last-seen indices — three allocations that each scale
// with the trace (an SpMM-256 stream is ~12 accesses per nonzero). The
// streaming path instead records the trace in fixed-size chunks, computes
// exact next-use information in one reverse pass with a dense per-line
// index (line IDs are dense, see fast.go), and stores it as 4-byte
// forward distances: almost every next use is nearby, and everything at
// or beyond the end of the trace lands in one "never again" bucket
// (distNever). The forward simulation then replays the chunks with the
// reference victim-selection rule, so the resulting Stats are
// bit-identical to the reference oracle's.

// traceChunkBits sizes the recording chunks: 1<<16 line IDs (512 KB) per
// chunk keeps allocation incremental without measurable per-access cost.
const traceChunkBits = 16

const traceChunk = 1 << traceChunkBits

// Trace is a chunked, append-only recording of cache-line IDs — the
// streaming Belady input. Unlike RecordTrace's flat slice it never
// reallocates recorded data (chunks are fixed-size), so peak memory is the
// recording itself plus one chunk, not the 2× transient of append doubling.
type Trace struct {
	chunks [][]int64
	n      int64
}

// NewTrace returns an empty recording. sizeHint is the expected number of
// accesses (0 is always safe); it pre-sizes the chunk index only — chunk
// payloads are allocated as the recording grows, so over-estimates cost
// eight bytes per missing chunk, not a giant flat array.
func NewTrace(sizeHint int64) *Trace {
	t := &Trace{}
	if sizeHint > 0 {
		const maxHintChunks = 1 << 20 // index pre-size cap: 8 MB of pointers
		hintChunks := sizeHint>>traceChunkBits + 1
		if hintChunks > maxHintChunks {
			hintChunks = maxHintChunks
		}
		t.chunks = make([][]int64, 0, hintChunks)
	}
	return t
}

// Emit appends one line-granular access; it is the recording end of the
// trace-callback protocol (pass t.Emit as the emit function).
func (t *Trace) Emit(line int64) {
	i := int(t.n & (traceChunk - 1))
	if i == 0 {
		t.chunks = append(t.chunks, make([]int64, traceChunk))
	}
	t.chunks[len(t.chunks)-1][i] = line
	t.n++
}

// Len returns the number of recorded accesses.
func (t *Trace) Len() int64 { return t.n }

// At returns the i-th recorded line ID; i must be in [0, Len()).
//
//repro:noalloc
func (t *Trace) At(i int64) int64 {
	return t.chunks[i>>traceChunkBits][i&(traceChunk-1)]
}

// lineSpan returns one past the largest recorded line ID (0 for an empty
// trace), the length of a dense per-line index over the recording. It
// panics on a line ID outside [0, 2^30), like FastLRU.Access.
func (t *Trace) lineSpan() int64 {
	span := int64(0)
	for ci, chunk := range t.chunks {
		if ci == len(t.chunks)-1 {
			chunk = chunk[:(t.n-1)&(traceChunk-1)+1]
		}
		for _, line := range chunk {
			checkLine(line)
			span = max(span, line+1)
		}
	}
	return span
}

// RecordTraceChunked drives the trace callback into a chunked recording
// sized by sizeHint (expected access count, 0 when unknown).
func RecordTraceChunked(trace func(emit func(line int64)), sizeHint int64) *Trace {
	t := NewTrace(sizeHint)
	trace(t.Emit)
	return t
}

// distNever is the "no next use before the end of the trace" bucket of the
// 4-byte distance encoding. Distances are exact for every trace shorter
// than 2^32-1 accesses; longer traces fall back to the reference oracle.
const distNever = ^uint32(0)

// SimulateBeladyTrace runs a chunked recording through the streaming
// Belady-optimal simulator. The Stats are bit-identical to the reference
// SimulateBelady on the same access sequence (the differential suite
// enforces this); determinism follows from the exact next-use indices and
// the fixed way-scan victim rule. Traces of 2^32-1 accesses or more (an
// unreachable ~34 GB recording) delegate to the reference oracle, whose
// int64 next-use indices have no horizon.
func SimulateBeladyTrace(cfg Config, t *Trace) Stats {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if t.n >= math.MaxUint32 {
		flat := make([]int64, t.n)
		for i := int64(0); i < t.n; i++ {
			flat[i] = t.At(i)
		}
		return SimulateBelady(cfg, flat)
	}

	// Reverse pass: exact forward distance to each access's next use,
	// chunk by chunk, 4 bytes per access. seen is a dense per-line index
	// holding 1 + the latest trace index visited so far (0 = not yet
	// seen); since the pass runs backwards it ends up holding every line's
	// first-access index. The trace is shorter than 2^32-1 accesses, so
	// 1 + index fits a uint32.
	dist := make([][]uint32, len(t.chunks))
	seen := make([]uint32, t.lineSpan())
	for ci := len(t.chunks) - 1; ci >= 0; ci-- {
		chunk := t.chunks[ci]
		used := traceChunk
		if ci == len(t.chunks)-1 {
			used = int((t.n-1)&(traceChunk-1)) + 1
		}
		d := make([]uint32, used)
		base := int64(ci) << traceChunkBits
		for i := used - 1; i >= 0; i-- {
			line := chunk[i]
			abs := base + int64(i)
			if later := seen[line]; later != 0 {
				d[i] = uint32(int64(later) - 1 - abs)
			} else {
				d[i] = distNever
			}
			seen[line] = uint32(abs + 1)
		}
		dist[ci] = d
	}

	// Forward pass: identical victim selection to the reference oracle —
	// scan ways in index order, prefer the first invalid way, otherwise
	// evict the strictly furthest next use.
	sets := cfg.Sets()
	setOf := cfg.setIndexer()
	ways := int64(cfg.Ways)
	const never = int64(1) << 62
	tags := make([]int64, sets*ways)
	next := make([]int64, sets*ways)
	reused := make([]bool, sets*ways)
	for i := range tags {
		tags[i] = -1
	}
	stats := Stats{LineBytes: cfg.LineBytes}

	for ci, chunk := range t.chunks {
		d := dist[ci]
		base := int64(ci) << traceChunkBits
		for i := range d {
			line := chunk[i]
			abs := base + int64(i)
			nextUse := never
			if d[i] != distNever {
				nextUse = abs + int64(d[i])
			}
			stats.Accesses++
			set := setOf(line)
			sb := set * ways
			hit := false
			var victim, victimNext int64 = sb, -1
			for w := int64(0); w < ways; w++ {
				k := sb + w
				if tags[k] == line {
					hit = true
					next[k] = nextUse
					reused[k] = true
					break
				}
				if tags[k] == -1 {
					if victimNext != never+1 {
						victim, victimNext = k, never+1
					}
					continue
				}
				if next[k] > victimNext {
					victim, victimNext = k, next[k]
				}
			}
			if hit {
				stats.Hits++
				continue
			}
			stats.Misses++
			if int64(seen[line]) == abs+1 {
				stats.Compulsory++
			}
			if tags[victim] != -1 {
				stats.Evictions++
				if !reused[victim] {
					stats.DeadFills++
				}
			}
			tags[victim] = line
			next[victim] = nextUse
			reused[victim] = false
		}
	}
	for k, tag := range tags {
		if tag != -1 && !reused[k] {
			stats.DeadFills++
		}
	}
	assertCoherent(stats)
	return stats
}
