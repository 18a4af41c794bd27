// Package trace defines the dynamic instruction-stream representation used
// throughout the simulator: dynamic basic blocks (what an Intel PT decoder
// would reconstruct from a real execution) and prediction windows (PWs), the
// unit the micro-op cache operates on.
//
// A PW starts at the target of a control-flow change and terminates at the
// first predicted-taken branch or before the first instruction that starts
// in the next 64-byte instruction-cache line, whichever comes first; an
// instruction that straddles the line boundary stays in the window, which
// then spans two lines (see Former). Because predicted-not-taken conditional
// branches do not terminate a PW, two dynamic executions of the same code can
// yield two PWs with the same start address but different lengths — the
// "overlapping PW" phenomenon the paper's FLACK and FURBYS policies exploit.
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// BranchKind classifies the control-flow instruction terminating a block.
type BranchKind uint8

const (
	// BranchNone means the block ends without a control-flow instruction
	// (it was cut at an icache line boundary).
	BranchNone BranchKind = iota
	// BranchCond is a conditional direct branch.
	BranchCond
	// BranchUncond is an unconditional direct jump.
	BranchUncond
	// BranchCall is a direct call.
	BranchCall
	// BranchRet is a return.
	BranchRet
	// BranchIndirect is an indirect jump or indirect call.
	BranchIndirect
)

// String returns a short human-readable name for the branch kind.
func (k BranchKind) String() string {
	switch k {
	case BranchNone:
		return "none"
	case BranchCond:
		return "cond"
	case BranchUncond:
		return "uncond"
	case BranchCall:
		return "call"
	case BranchRet:
		return "ret"
	case BranchIndirect:
		return "indirect"
	default:
		return fmt.Sprintf("BranchKind(%d)", uint8(k))
	}
}

// IsBranch reports whether the kind denotes an actual control-flow
// instruction (anything but BranchNone).
func (k BranchKind) IsBranch() bool { return k != BranchNone }

// IsConditional reports whether the branch has a direction to predict.
func (k BranchKind) IsConditional() bool { return k == BranchCond }

// Block is a dynamic basic block: a straight-line run of instructions ending
// either in a control-flow instruction or at an arbitrary cut point chosen by
// the workload generator. It is the information an Intel PT trace plus the
// binary provides.
type Block struct {
	// Addr is the virtual address of the first instruction.
	Addr uint64
	// Bytes is the total code size of the block in bytes.
	Bytes uint16
	// NumInst is the number of x86 instructions in the block.
	NumInst uint16
	// NumUops is the number of micro-ops the block decodes into.
	NumUops uint16
	// Kind is the control-flow instruction terminating the block
	// (BranchNone if the block simply falls through).
	Kind BranchKind
	// Taken reports the actual outcome for conditional branches; it is
	// true for unconditional transfers and false when Kind is BranchNone.
	Taken bool
	// Target is the actual target address when Taken, otherwise 0.
	Target uint64
	// BranchPC is the address of the terminating branch instruction
	// (0 when Kind is BranchNone).
	BranchPC uint64
}

// FallThrough returns the address of the instruction following the block.
func (b Block) FallThrough() uint64 { return b.Addr + uint64(b.Bytes) }

// NextPC returns the address control flow continues at after the block.
func (b Block) NextPC() uint64 {
	if b.Taken {
		return b.Target
	}
	return b.FallThrough()
}

// EndsTaken reports whether the block ends in a taken branch, which ends
// its prediction window.
func (b Block) EndsTaken() bool { return b.Kind.IsBranch() && b.Taken }

// InstAddr returns the address of instruction i of the block; i == NumInst
// gives the fall-through address. Together with UopsBefore it is the one
// definition of instruction boundaries inside a block (see Split).
func (b Block) InstAddr(i int) uint64 { return b.Addr + uint64(b.Split().BytesBefore(i)) }

// UopsBefore returns the micro-ops of the block's first i instructions.
func (b Block) UopsBefore(i int) int { return b.Split().UopsBefore(i) }

// Split is a block's bytes and micro-ops apportioned across its
// instructions: each instruction gets the quotient of the total over
// NumInst, and the first remainder of them one more. This approximates
// instruction boundaries without modelling real x86 encodings; all that
// matters downstream is where line boundaries fall and how many micro-ops
// each side of a cut carries. A Split divides once, so that a walk over a
// block's instructions asks for boundaries without a division each.
type Split struct {
	byteQ, byteR, uopQ, uopR uint16
}

// Split returns the block's instruction split. It reads the block through
// a pointer: copying a block that was just stored field by field costs a
// stalled load on every Former.Add.
func (b *Block) Split() Split {
	var s Split
	if n := b.NumInst; n > 0 {
		s.byteQ, s.byteR = b.Bytes/n, b.Bytes%n
		s.uopQ, s.uopR = b.NumUops/n, b.NumUops%n
	}
	return s
}

// BytesBefore returns the bytes of the first i instructions.
func (s Split) BytesBefore(i int) int { return i*int(s.byteQ) + min(i, int(s.byteR)) }

// UopsBefore returns the micro-ops of the first i instructions.
func (s Split) UopsBefore(i int) int { return i*int(s.uopQ) + min(i, int(s.uopR)) }

// InstBytes returns the bytes of instruction i.
func (s Split) InstBytes(i uint16) uint16 {
	if i < s.byteR {
		return s.byteQ + 1
	}
	return s.byteQ
}

// InstUops returns the micro-ops of instruction i.
func (s Split) InstUops(i uint16) uint16 {
	if i < s.uopR {
		return s.uopQ + 1
	}
	return s.uopQ
}

// LineSize is the instruction-cache line size in bytes; PW formation cuts
// windows at these boundaries, matching the paper's 64-byte L1i lines.
const LineSize = 64

// LineAddr returns the icache line address containing addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineSize-1) }

// PW is a prediction window: the lookup and storage granule of the micro-op
// cache. Its start address is the cache key; its micro-op count is the
// paper's "cost"; the number of cache entries it occupies is its "size".
// A PW holds no references (16 bytes, pointer-free), so PW slices are never
// scanned by the garbage collector; its icache lines follow from Start and
// Bytes (Lines).
type PW struct {
	// Start is the starting virtual address (the cache key).
	Start uint64
	// Bytes is the code footprint of the window.
	Bytes uint16
	// NumInst is the number of instructions in the window.
	NumInst uint16
	// NumUops is the number of micro-ops (the miss cost of the window).
	NumUops uint16
	// EndsTaken reports whether the window was terminated by a taken
	// branch (as opposed to an icache line boundary).
	EndsTaken bool
}

// Lines returns the first and last icache line the window's code spans;
// the inclusive micro-op cache invalidates a PW when any line in
// [first, last] (step LineSize) leaves the L1i.
func (p PW) Lines() (first, last uint64) { return LineSpan(p.Start, p.Bytes) }

// Cost returns the micro-op count of the window (the paper's miss cost).
func (p PW) Cost() int { return int(p.NumUops) }

// Entries returns the number of micro-op cache entries the window occupies
// given a capacity of uopsPerEntry micro-ops per entry (the paper's "size").
func (p PW) Entries(uopsPerEntry int) int {
	if p.NumUops == 0 {
		return 1
	}
	return (int(p.NumUops) + uopsPerEntry - 1) / uopsPerEntry
}

// LineSpan returns the first and last icache line covered by
// [start, start+bytes); a zero-byte span covers start's line. It is the one
// definition of a window's lines: readers walk
// for l := first; l <= last; l += LineSize.
func LineSpan(start uint64, bytes uint16) (first, last uint64) {
	first = LineAddr(start)
	if bytes == 0 {
		return first, first
	}
	return first, LineAddr(start + uint64(bytes) - 1)
}

const fileMagic = 0x75506354 // "uPcT"

// WriteBlocks serializes a block trace in a compact little-endian binary
// format understood by ReadBlocks.
func WriteBlocks(w io.Writer, blocks []Block) error {
	bw := bufio.NewWriter(w)
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:4], fileMagic)
	binary.LittleEndian.PutUint64(hdr[4:12], uint64(len(blocks)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [32]byte
	for _, b := range blocks {
		binary.LittleEndian.PutUint64(rec[0:8], b.Addr)
		binary.LittleEndian.PutUint16(rec[8:10], b.Bytes)
		binary.LittleEndian.PutUint16(rec[10:12], b.NumInst)
		binary.LittleEndian.PutUint16(rec[12:14], b.NumUops)
		rec[14] = byte(b.Kind)
		if b.Taken {
			rec[15] = 1
		} else {
			rec[15] = 0
		}
		binary.LittleEndian.PutUint64(rec[16:24], b.Target)
		binary.LittleEndian.PutUint64(rec[24:32], b.BranchPC)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadBlocks deserializes a block trace written by WriteBlocks.
func ReadBlocks(r io.Reader) ([]Block, error) {
	br := bufio.NewReader(r)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %#x", got)
	}
	n := binary.LittleEndian.Uint64(hdr[4:12])
	const maxBlocks = 1 << 30
	if n > maxBlocks {
		return nil, fmt.Errorf("trace: implausible block count %d", n)
	}
	blocks := make([]Block, 0, n)
	var rec [32]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: reading block %d: %w", i, err)
		}
		blocks = append(blocks, Block{
			Addr:     binary.LittleEndian.Uint64(rec[0:8]),
			Bytes:    binary.LittleEndian.Uint16(rec[8:10]),
			NumInst:  binary.LittleEndian.Uint16(rec[10:12]),
			NumUops:  binary.LittleEndian.Uint16(rec[12:14]),
			Kind:     BranchKind(rec[14]),
			Taken:    rec[15] != 0,
			Target:   binary.LittleEndian.Uint64(rec[16:24]),
			BranchPC: binary.LittleEndian.Uint64(rec[24:32]),
		})
	}
	return blocks, nil
}
