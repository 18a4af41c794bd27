package offline

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"

	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// planMagic identifies a serialized keep-plan ("uPpL").
const planMagic = 0x75507046

// planVersion is the keep-plan format version. Bump it whenever the
// encoding OR the semantics of a plan change (solver tie-breaking, cost
// scaling, segment handling): cached plans from older versions then miss
// and are recomputed instead of silently replaying stale decisions.
const planVersion = 3

// EncodePlan serializes a keep-plan in a compact little-endian binary
// format understood by DecodePlan: a 16-byte header (magic, version,
// model, fold flag, interval count) followed by the keep decisions packed
// eight to a byte, LSB first.
func EncodePlan(w io.Writer, d *Decisions) error {
	bw := bufio.NewWriter(w)
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:4], planMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], planVersion)
	hdr[6] = byte(d.Model)
	if d.FoldVariants {
		hdr[7] = 1
	}
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(len(d.Keep)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	packed := make([]byte, (len(d.Keep)+7)/8)
	for i, k := range d.Keep {
		if k {
			packed[i>>3] |= 1 << (uint(i) & 7)
		}
	}
	if _, err := bw.Write(packed); err != nil {
		return err
	}
	return bw.Flush()
}

// DecodePlan deserializes a keep-plan written by EncodePlan. Corrupted,
// truncated or wrong-version inputs are rejected with a descriptive error
// (never a panic); callers fall back to recomputing the plan.
func DecodePlan(r io.Reader) (*Decisions, error) {
	br := bufio.NewReader(r)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("offline: plan header truncated: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:4]); got != planMagic {
		return nil, fmt.Errorf("offline: bad plan magic %#x (want %#x)", got, planMagic)
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != planVersion {
		return nil, fmt.Errorf("offline: plan version %d not supported (want %d)", v, planVersion)
	}
	model := CostModel(hdr[6])
	if model < CostOHR || model > CostVC {
		return nil, fmt.Errorf("offline: unknown plan cost model %d", hdr[6])
	}
	n := binary.LittleEndian.Uint64(hdr[8:16])
	const maxIntervals = 1 << 32
	if n > maxIntervals {
		return nil, fmt.Errorf("offline: implausible plan interval count %d", n)
	}
	packed := make([]byte, (n+7)/8)
	if _, err := io.ReadFull(br, packed); err != nil {
		return nil, fmt.Errorf("offline: plan body truncated: %w", err)
	}
	d := &Decisions{Keep: make([]bool, n), Model: model, FoldVariants: hdr[7] != 0}
	for i := range d.Keep {
		d.Keep[i] = packed[i>>3]&(1<<(uint(i)&7)) != 0
	}
	return d, nil
}

// PlanCache stores solved keep-plans keyed by PlanKey. Load returns the
// cached plan or ok=false; Store persists one (best-effort — a failed
// store must not fail the solve). The artifact-backed implementation lives
// in internal/artifact; a nil PlanCache disables caching.
type PlanCache interface {
	Load(key string) (*Decisions, bool)
	Store(key string, d *Decisions)
}

// PlanKey content-addresses a solve: SHA-256 over a header (the format
// version, the geometry the plan was solved for, the objective, the fold
// flag, the resolved segment limit and the sequence length) followed by
// trace.SequenceDigest of the lookup sequence (start address and micro-op
// count per window — exactly the inputs the flow formulation reads). Any
// change to these inputs, or a planVersion bump, yields a different key,
// which is how stale cache entries are invalidated. A prepared trace keeps
// its digest, so the plan solves over it hash the sequence once. Keys from
// builds that hashed the sequence itself into the key differ, so an older
// store misses once and refills.
func PlanKey(pws []trace.PW, cfg uopcache.Config, model CostModel, foldVariants bool, segLimit int) string {
	return planKey(trace.SequenceDigest(pws), len(pws), cfg, model, foldVariants, segLimit)
}

// planKey is PlanKey over a precomputed sequence digest of n windows.
func planKey(digest [sha256.Size]byte, n int, cfg uopcache.Config, model CostModel, foldVariants bool, segLimit int) string {
	if segLimit <= 0 {
		segLimit = DefaultSegmentLimit
	}
	var hdr [29 + sha256.Size]byte
	binary.LittleEndian.PutUint16(hdr[0:2], planVersion)
	binary.LittleEndian.PutUint32(hdr[2:6], uint32(cfg.Entries))
	binary.LittleEndian.PutUint32(hdr[6:10], uint32(cfg.Ways))
	binary.LittleEndian.PutUint32(hdr[10:14], uint32(cfg.UopsPerEntry))
	if cfg.Compaction {
		hdr[14] = 1
	}
	hdr[15] = byte(model)
	if foldVariants {
		hdr[16] = 1
	}
	binary.LittleEndian.PutUint32(hdr[17:21], uint32(segLimit))
	binary.LittleEndian.PutUint64(hdr[21:29], uint64(n))
	copy(hdr[29:], digest[:])
	sum := sha256.Sum256(hdr[:])
	return hex.EncodeToString(sum[:])
}

// ComputeDecisionsCached is ComputeDecisionsPrepared over pws with the
// plan-cache attachment: a plans hit skips the solve, and pt (nil = build
// one, see uopcache.PreparedFor) supplies the columns for a miss.
func ComputeDecisionsCached(ctx context.Context, pws []trace.PW, pt *trace.PreparedTrace, cfg uopcache.Config, model CostModel, foldVariants bool, segLimit, workers int, plans PlanCache) *Decisions {
	return computePlan(ctx, uopcache.PreparedFor(cfg, pws, pt), cfg, model, foldVariants, segLimit, workers, plans)
}

// computePlan is the caching wrapper around ComputeDecisionsPrepared: with a
// plan cache attached it loads a previously solved plan by content key, and
// stores freshly solved plans for future runs. A plan solved under a
// cancelled context is incomplete and is never stored.
func computePlan(ctx context.Context, pt *trace.PreparedTrace, cfg uopcache.Config, model CostModel, foldVariants bool, segLimit, workers int, plans PlanCache) *Decisions {
	if plans == nil {
		return ComputeDecisionsPrepared(ctx, pt, cfg, model, foldVariants, segLimit, workers)
	}
	key := planKey(pt.SequenceDigest(), pt.Len(), cfg, model, foldVariants, segLimit)
	if d, ok := plans.Load(key); ok && len(d.Keep) == pt.Len() && d.Model == model && d.FoldVariants == foldVariants {
		return d
	}
	d := ComputeDecisionsPrepared(ctx, pt, cfg, model, foldVariants, segLimit, workers)
	if ctx == nil || ctx.Err() == nil {
		plans.Store(key, d)
	}
	return d
}
