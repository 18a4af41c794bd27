package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// PreparedTrace is a columnar, read-only view of a PW lookup sequence,
// built once per (trace, cache geometry) and shared by every replay that
// walks the same sequence: policy replays, offline plan solves, figure
// cells and parallel workers. It precomputes the per-window attributes the
// hot paths would otherwise rederive on every lookup of every replay —
// the set index and the storage footprint — plus a CSR
// occurrence index (all positions of each distinct start address) that
// replaces the per-replay map-of-slices the offline oracle used to build.
//
// All fields are immutable after Prepare, except the sequence digest, which
// is computed on first use under a sync.Once; concurrent readers need no
// locking. Mutable per-replay state (oracle cursors, keep bits) lives with
// the replay, keyed by the dense key id.
type PreparedTrace struct {
	pws  []PW
	set  []int32
	foot []int32
	// sig fingerprints the geometry the columns were computed under;
	// internal/uopcache compares it against a caller's configuration and
	// rebuilds the trace on mismatch rather than trusting stale columns.
	sig uint64

	// Occurrence index: keyID[i] is the dense id of pws[i].Start (ids
	// assigned in first-appearance order), keys[id] is the start address,
	// and occ[occOff[id]:occOff[id+1]] lists the ascending positions at
	// which that address is looked up.
	keyID  []int32
	keys   []uint64
	idOf   map[uint64]int32
	occOff []int32
	occ    []int32

	digestOnce sync.Once
	digest     [sha256.Size]byte
}

// Prepare builds the columnar view of pws. sig identifies the geometry;
// setIndex and footprint are the geometry owner's per-window attribute
// functions (internal/uopcache supplies them from its Config so the
// formulas stay defined in one place).
func Prepare(pws []PW, sig uint64, setIndex func(uint64) int, footprint func(PW) int) *PreparedTrace {
	n := len(pws)
	pt := &PreparedTrace{
		pws:  pws,
		set:  make([]int32, n),
		foot: make([]int32, n),
		sig:  sig,
		// One allocation for both int32 columns of the CSR build.
		keyID: make([]int32, n),
		idOf:  make(map[uint64]int32, n/4+1),
	}
	for i := range pws {
		p := &pws[i]
		pt.set[i] = int32(setIndex(p.Start))
		pt.foot[i] = int32(footprint(*p))
		id, ok := pt.idOf[p.Start]
		if !ok {
			id = int32(len(pt.keys))
			pt.idOf[p.Start] = id
			pt.keys = append(pt.keys, p.Start)
		}
		pt.keyID[i] = id
	}
	// CSR fill: count occurrences per id, prefix-sum, then scatter
	// positions in ascending order.
	k := len(pt.keys)
	counts := make([]int32, k+1)
	for _, id := range pt.keyID {
		counts[id+1]++
	}
	for i := 1; i <= k; i++ {
		counts[i] += counts[i-1]
	}
	pt.occOff = counts
	pt.occ = make([]int32, n)
	cur := make([]int32, k)
	for i, id := range pt.keyID {
		pt.occ[pt.occOff[id]+cur[id]] = int32(i)
		cur[id]++
	}
	return pt
}

// Len returns the number of lookups in the sequence.
//
//simlint:hotpath
func (pt *PreparedTrace) Len() int { return len(pt.pws) }

// PWs returns the underlying lookup sequence (read-only; do not mutate).
//
//simlint:hotpath
func (pt *PreparedTrace) PWs() []PW { return pt.pws }

// At returns the window looked up at position i.
//
//simlint:hotpath
func (pt *PreparedTrace) At(i int) PW { return pt.pws[i] }

// Set returns the precomputed set index of the window at position i.
//
//simlint:hotpath
func (pt *PreparedTrace) Set(i int) int { return int(pt.set[i]) }

// Footprint returns the window's precomputed storage footprint in the
// geometry's accounting unit (entries normally, micro-ops under
// compaction).
//
//simlint:hotpath
func (pt *PreparedTrace) Footprint(i int) int { return int(pt.foot[i]) }

// Sig returns the geometry fingerprint the columns were computed under.
//
//simlint:hotpath
func (pt *PreparedTrace) Sig() uint64 { return pt.sig }

// KeyID returns the dense id of the window start looked up at position i.
//
//simlint:hotpath
func (pt *PreparedTrace) KeyID(i int) int32 { return pt.keyID[i] }

// NumKeys returns the number of distinct start addresses in the sequence.
//
//simlint:hotpath
func (pt *PreparedTrace) NumKeys() int { return len(pt.keys) }

// IDOf returns the dense id of a start address, or ok=false when the
// address never appears in the sequence.
//
//simlint:hotpath
func (pt *PreparedTrace) IDOf(start uint64) (int32, bool) {
	id, ok := pt.idOf[start]
	return id, ok
}

// Occurrences returns the ascending lookup positions of the key with the
// given dense id (read-only; shared across replays).
//
//simlint:hotpath
func (pt *PreparedTrace) Occurrences(id int32) []int32 {
	return pt.occ[pt.occOff[id]:pt.occOff[id+1]]
}

// SequenceDigest returns SequenceDigest(pt.PWs()), computed on the first
// call and kept: every plan-key lookup over the trace reuses it.
func (pt *PreparedTrace) SequenceDigest() [sha256.Size]byte {
	pt.digestOnce.Do(func() { pt.digest = SequenceDigest(pt.pws) })
	return pt.digest
}

// SequenceDigest is the SHA-256 of a lookup sequence's start address and
// micro-op count per window (little-endian, 10 bytes a window), the inputs
// an offline plan solve reads from the sequence.
func SequenceDigest(pws []PW) [sha256.Size]byte {
	h := sha256.New()
	// Stream fixed-size chunks to keep the hash fast and allocation-free.
	var buf [640]byte
	n := 0
	for i := range pws {
		binary.LittleEndian.PutUint64(buf[n:], pws[i].Start)
		binary.LittleEndian.PutUint16(buf[n+8:], pws[i].NumUops)
		n += 10
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
	}
	h.Write(buf[:n])
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d
}

// SameSequence reports whether pt was built over exactly this slice: same
// length and same backing array. internal/uopcache uses it as a cheap guard
// before trusting positional columns for a caller-supplied sequence.
//
//simlint:hotpath
func (pt *PreparedTrace) SameSequence(pws []PW) bool {
	if len(pws) != len(pt.pws) {
		return false
	}
	return len(pws) == 0 || &pws[0] == &pt.pws[0]
}
