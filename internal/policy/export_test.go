package policy

import (
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// referenceMockingjay is Mockingjay with its training history kept the
// direct way: every hit and every insertion reads the window's previous
// access from the history map and writes the current one back, and eviction
// leaves the history alone. Mockingjay itself writes the history only at
// eviction and takes a hit's previous access from the resident's slot; the
// two must make the same decisions.
type referenceMockingjay struct {
	*Mockingjay
}

// NewReferenceMockingjay returns the per-access reference Mockingjay.
func NewReferenceMockingjay() uopcache.Policy {
	return referenceMockingjay{NewMockingjay()}
}

func (p referenceMockingjay) Name() string { return "mockingjay-reference" }

// observe trains the RDP with the reuse distance since the window's
// previous access and records this access.
func (p referenceMockingjay) observe(set int, pc uint64) {
	now := p.clock[set]
	if prev, ok := p.last[pc]; ok {
		p.train(pc, float64(now-prev))
	}
	p.last[pc] = now
}

func (p referenceMockingjay) OnHit(set int, slot int32, pc uint64) {
	p.clock[set]++
	p.observe(set, pc)
	p.lastAccess[set*p.slotsPerSet+int(slot)] = p.clock[set]
	p.rec.touch(set, slot)
}

func (p referenceMockingjay) OnInsert(set int, slot int32, pw trace.PW) {
	p.clock[set]++
	p.observe(set, pw.Start)
	p.lastAccess[set*p.slotsPerSet+int(slot)] = p.clock[set]
	p.rec.touch(set, slot)
}

func (p referenceMockingjay) OnEvict(set int, slot int32, _ uint64) { p.rec.drop(set, slot) }
