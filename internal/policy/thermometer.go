package policy

import (
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// ThermoClass is Thermometer's three-way classification of windows by
// profiled hit rate.
type ThermoClass uint8

const (
	// ThermoCold windows had low profiled hit rates.
	ThermoCold ThermoClass = iota
	// ThermoWarm windows had middling profiled hit rates.
	ThermoWarm
	// ThermoHot windows had high profiled hit rates.
	ThermoHot
)

// Thermometer implements the profile-guided policy of Song et al. (ISCA
// 2022), the state-of-the-art profile-guided baseline in the paper: windows
// are classified hot/warm/cold by whole-execution profiled hit rate; cold
// windows are evicted first and hot windows protected. It captures holistic
// information but — as the paper observes — has no mechanism to adapt to
// transient (local) behaviour, which is exactly what FURBYS adds.
type Thermometer struct {
	class map[uint64]ThermoClass
	// DefaultClass applies to windows absent from the profile.
	DefaultClass ThermoClass
	// slotClass is each resident's class, looked up once at insertion.
	slotClass   []ThermoClass
	slotsPerSet int
}

// NewThermometer builds the policy from a profile classification.
func NewThermometer(class map[uint64]ThermoClass) *Thermometer {
	return &Thermometer{class: class, DefaultClass: ThermoWarm}
}

// Name implements uopcache.Policy.
func (p *Thermometer) Name() string { return "thermometer" }

func (p *Thermometer) classOf(pc uint64) ThermoClass {
	if c, ok := p.class[pc]; ok {
		return c
	}
	return p.DefaultClass
}

// Bind implements uopcache.Policy.
func (p *Thermometer) Bind(g uopcache.Geometry) {
	p.slotsPerSet = g.SlotsPerSet
	p.slotClass = make([]ThermoClass, g.Slots())
}

// OnHit implements uopcache.Policy.
//
//simlint:hotpath
func (p *Thermometer) OnHit(int, int32, uint64) {}

// OnInsert implements uopcache.Policy.
//
//simlint:hotpath
func (p *Thermometer) OnInsert(set int, slot int32, pw trace.PW) {
	p.slotClass[set*p.slotsPerSet+int(slot)] = p.classOf(pw.Start)
}

// OnEvict implements uopcache.Policy.
//
//simlint:hotpath
func (p *Thermometer) OnEvict(int, int32, uint64) {}

// Victim implements uopcache.Policy: evict the LRU window of the coldest
// class present.
//
//simlint:hotpath
func (p *Thermometer) Victim(set int, residents []uopcache.Resident, _ trace.PW) uopcache.Decision {
	base := set * p.slotsPerSet
	best := 0
	bestClass := p.slotClass[base+int(residents[0].Slot)]
	for i := 1; i < len(residents); i++ {
		c := p.slotClass[base+int(residents[i].Slot)]
		switch {
		case c < bestClass:
			best, bestClass = i, c
		case c == bestClass && residents[i].Stamp < residents[best].Stamp:
			best = i
		}
	}
	return uopcache.Decision{Victim: residents[best].Slot, Reason: ReasonColdestClass, Score: float64(bestClass)}
}
