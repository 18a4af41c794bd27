package policy

import (
	"strings"

	"uopsim/internal/telemetry"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// metricSafe maps a policy name into the [a-z0-9_] metric-name alphabet the
// exposition contract requires (e.g. "ship++" -> "ship__").
func metricSafe(name string) string {
	b := []byte(strings.ToLower(name))
	for i, c := range b {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '_' {
			b[i] = '_'
		}
	}
	return string(b)
}

// Instrumented decorates a replacement policy with per-policy decision
// counters (policy_<name>_*_total) in a telemetry registry. It preserves the
// wrapped policy's Name so reports and event traces are unchanged, and
// forwards Bind so the wrapped policy sees the cache's geometry and clock;
// callers needing the concrete policy (e.g. FURBYS stats) keep their own
// reference to it.
//
//simlint:ignore registry decorator applied by core.attach around factory-built policies, not a standalone registry entry
type Instrumented struct {
	base uopcache.Policy

	hits, inserts, evictions *telemetry.Counter
	victimCalls, bypasses    *telemetry.Counter
}

// Instrument wraps p with decision counters registered in reg.
func Instrument(p uopcache.Policy, reg *telemetry.Registry) *Instrumented {
	// The per-policy family is policy_<name>_*; every registered policy name
	// is lowercase [a-z0-9_]-safe after mangling below, so the runtime names
	// stay inside the telemetry analyzer's policy_ family.
	prefix := "policy_" + metricSafe(p.Name()) + "_"
	return &Instrumented{
		base:        p,
		hits:        reg.Counter(prefix + "hits_total"),         //simlint:ignore telemetry per-policy family policy_<name>_*, name mangled to [a-z0-9_] by metricSafe
		inserts:     reg.Counter(prefix + "inserts_total"),      //simlint:ignore telemetry per-policy family policy_<name>_*, name mangled to [a-z0-9_] by metricSafe
		evictions:   reg.Counter(prefix + "evictions_total"),    //simlint:ignore telemetry per-policy family policy_<name>_*, name mangled to [a-z0-9_] by metricSafe
		victimCalls: reg.Counter(prefix + "victim_calls_total"), //simlint:ignore telemetry per-policy family policy_<name>_*, name mangled to [a-z0-9_] by metricSafe
		bypasses:    reg.Counter(prefix + "bypasses_total"),     //simlint:ignore telemetry per-policy family policy_<name>_*, name mangled to [a-z0-9_] by metricSafe
	}
}

// Name implements uopcache.Policy.
func (p *Instrumented) Name() string { return p.base.Name() }

// Bind implements uopcache.Policy.
func (p *Instrumented) Bind(g uopcache.Geometry) { p.base.Bind(g) }

// OnHit implements uopcache.Policy.
//
//simlint:hotpath
func (p *Instrumented) OnHit(set int, slot int32, pc uint64) {
	p.hits.Inc()
	p.base.OnHit(set, slot, pc)
}

// OnInsert implements uopcache.Policy.
//
//simlint:hotpath
func (p *Instrumented) OnInsert(set int, slot int32, pw trace.PW) {
	p.inserts.Inc()
	p.base.OnInsert(set, slot, pw)
}

// OnEvict implements uopcache.Policy.
//
//simlint:hotpath
func (p *Instrumented) OnEvict(set int, slot int32, pc uint64) {
	p.evictions.Inc()
	p.base.OnEvict(set, slot, pc)
}

// Victim implements uopcache.Policy, counting calls and bypass decisions.
//
//simlint:hotpath
func (p *Instrumented) Victim(set int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	p.victimCalls.Inc()
	d := p.base.Victim(set, residents, incoming)
	if d.Bypass {
		p.bypasses.Inc()
	}
	return d
}
