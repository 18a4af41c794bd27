package policy_test

import (
	"testing"

	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

// victimLog forwards every event to a policy and records its decisions.
type victimLog struct {
	uopcache.Policy
	decisions []uopcache.Decision
}

func (v *victimLog) Victim(set int, residents []uopcache.Resident, incoming trace.PW) uopcache.Decision {
	d := v.Policy.Victim(set, residents, incoming)
	v.decisions = append(v.decisions, d)
	return d
}

// TestMockingjayMatchesPerAccessHistory drives Mockingjay, whose training
// history is written at eviction and read at insertion, and the reference
// that reads and writes it on every access, through the same traces: all
// eleven applications at the default geometry, under compaction, and with
// the inclusive L1i, whose evictions invalidate windows. Both must reach the
// same Stats through the same sequence of decisions. The L1i is cut to 8 KB
// for the inclusive runs: at its default 32 KB these traces evict almost no
// line that still holds a resident window.
func TestMockingjayMatchesPerAccessHistory(t *testing.T) {
	blocks := 6000
	if testing.Short() {
		blocks = 1500
	}
	base := core.DefaultConfig()
	compact := base
	compact.UopCache.Compaction = true
	smallL1i := base
	smallL1i.L1I.SizeBytes = 8 << 10
	setups := []struct {
		name   string
		cfg    core.Config
		icache bool
	}{
		{"default", base, false},
		{"compaction", compact, false},
		{"inclusive-l1i", smallL1i, true},
	}
	var invalidations uint64
	for _, app := range workload.Names() {
		spec, err := workload.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		pws := trace.FormPWs(workload.GenerateSpec(spec, blocks, 0), 0)
		for _, s := range setups {
			got := &victimLog{Policy: policy.NewMockingjay()}
			want := &victimLog{Policy: policy.NewReferenceMockingjay()}
			opts := core.BehaviorOptions{WithICache: s.icache}
			gs := core.RunBehavior(pws, s.cfg, got, opts).Stats
			ws := core.RunBehavior(pws, s.cfg, want, opts).Stats
			if gs != ws {
				t.Errorf("%s/%s: Stats %+v, reference %+v", app, s.name, gs, ws)
			}
			if len(got.decisions) != len(want.decisions) {
				t.Errorf("%s/%s: %d decisions, reference %d", app, s.name, len(got.decisions), len(want.decisions))
				continue
			}
			for i := range got.decisions {
				if got.decisions[i] != want.decisions[i] {
					t.Errorf("%s/%s: decision %d is %+v, reference %+v", app, s.name, i, got.decisions[i], want.decisions[i])
					break
				}
			}
			if s.icache {
				invalidations += gs.Invalidations
			}
		}
	}
	t.Logf("%d windows invalidated", invalidations)
	if invalidations == 0 {
		t.Error("the inclusive L1i invalidated no window: the invalidation path went untested")
	}
}
