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
// two must make the same decisions. The reference also keeps its own
// recency, stamping a slot from its own counter at each hit and insertion,
// and breaks Mockingjay's ties with those stamps instead of the cache's.
type referenceMockingjay struct {
	*Mockingjay
	touches uint64
	stamp   []uint64
	view    []uopcache.Resident
}

// NewReferenceMockingjay returns the per-access reference Mockingjay.
func NewReferenceMockingjay() uopcache.Policy {
	return &referenceMockingjay{Mockingjay: NewMockingjay()}
}

func (p *referenceMockingjay) Name() string { return "mockingjay-reference" }

func (p *referenceMockingjay) Bind(g uopcache.Geometry) {
	p.Mockingjay.Bind(g)
	p.stamp = make([]uint64, g.Slots())
}

// observe trains the RDP with the reuse distance since the window's
// previous access and records this access.
func (p *referenceMockingjay) observe(set int, pc uint64) {
	now := p.clock[set]
	if prev, ok := p.last[pc]; ok {
		p.train(pc, float64(now-prev))
	}
	p.last[pc] = now
}

// touch stamps a slot from the reference's own recency counter.
func (p *referenceMockingjay) touch(set int, slot int32) {
	p.touches++
	p.stamp[set*p.slotsPerSet+int(slot)] = p.touches
}

func (p *referenceMockingjay) OnHit(set int, slot int32, pc uint64) {
	p.clock[set]++
	p.observe(set, pc)
	p.lastAccess[set*p.slotsPerSet+int(slot)] = p.clock[set]
	p.touch(set, slot)
}

func (p *referenceMockingjay) OnInsert(set int, slot int32, pw trace.PW) {
	p.clock[set]++
	p.observe(set, pw.Start)
	p.lastAccess[set*p.slotsPerSet+int(slot)] = p.clock[set]
	p.touch(set, slot)
}

func (p *referenceMockingjay) OnEvict(int, int32, uint64) {}

// Victim hands Mockingjay the residents with the reference's own stamps.
func (p *referenceMockingjay) Victim(set int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	p.view = append(p.view[:0], residents...)
	for i := range p.view {
		p.view[i].Stamp = p.stamp[set*p.slotsPerSet+int(p.view[i].Slot)]
	}
	return p.Mockingjay.Victim(set, p.view, incoming)
}
