package power_test

import (
	"testing"

	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/cache"
	"uopsim/internal/frontend"
	"uopsim/internal/policy"
	"uopsim/internal/power"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
	"uopsim/internal/workload"
)

func TestCACTILikeMonotone(t *testing.T) {
	if power.CACTILike(0, 8) != 0 {
		t.Error("zero size should cost zero")
	}
	small := power.CACTILike(32<<10, 8)
	large := power.CACTILike(512<<10, 8)
	if small <= 0 || large <= small {
		t.Errorf("energy not monotone in size: %v vs %v", small, large)
	}
	lowAssoc := power.CACTILike(32<<10, 1)
	if lowAssoc >= small {
		t.Error("energy should grow with associativity")
	}
	if got := power.CACTILike(1024, 0); got <= 0 {
		t.Errorf("assoc 0 should clamp, got %v", got)
	}
}

func TestCACTILikeCalibrationPoints(t *testing.T) {
	// Fitted targets: 32KiB/8w ~ 20pJ, 512KiB/8w ~ 75pJ (order of
	// magnitude, not exact).
	l1 := power.CACTILike(32<<10, 8)
	if l1 < 10 || l1 > 40 {
		t.Errorf("L1-class read energy %v pJ, want 10-40", l1)
	}
	l2 := power.CACTILike(512<<10, 8)
	if l2 < 50 || l2 > 150 {
		t.Errorf("L2-class read energy %v pJ, want 50-150", l2)
	}
}

func TestDefaultTablePositive(t *testing.T) {
	tbl := power.DefaultTable()
	vals := map[string]float64{
		"DecodePerUop": tbl.DecodePerUop, "ICacheRead": tbl.ICacheRead,
		"L2Read": tbl.L2Read, "UopLookup": tbl.UopLookup,
		"UopWritePerEntry": tbl.UopWritePerEntry, "BTBLookup": tbl.BTBLookup,
		"BPLookup": tbl.BPLookup, "L1DRead": tbl.L1DRead,
		"BackendPerUop": tbl.BackendPerUop, "StaticPerCycle": tbl.StaticPerCycle,
	}
	for name, v := range vals {
		if v <= 0 {
			t.Errorf("%s = %v, want > 0", name, v)
		}
	}
	// The micro-op cache is a small structure: its lookup must be cheaper
	// than an icache read (that is the whole point of the design).
	if tbl.UopLookup >= tbl.ICacheRead {
		t.Errorf("uop lookup (%v) should cost less than icache read (%v)", tbl.UopLookup, tbl.ICacheRead)
	}
}

func runClang(t *testing.T, mutate func(*frontend.Config)) frontend.Result {
	t.Helper()
	spec, err := workload.Get("clang")
	if err != nil {
		t.Fatal(err)
	}
	blocks := workload.GenerateSpec(spec, 25000, 0)
	fcfg := frontend.DefaultConfig()
	if mutate != nil {
		mutate(&fcfg)
	}
	uc := uopcache.New(uopcache.DefaultConfig(), policy.NewLRU())
	l1i := cache.New(cache.Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, LatencyCycles: 1})
	p := frontend.NewPath(blocks, trace.FormPWs(blocks, 0), branch.DefaultConfig(), backend.DefaultConfig())
	return frontend.New(fcfg, uc, l1i).Run(p)
}

// TestFig13Calibration: in the no-uop-cache baseline the decoder and icache
// shares must be in the neighbourhood of the paper's 12.5% and 7.7%.
func TestFig13Calibration(t *testing.T) {
	res := runClang(t, func(c *frontend.Config) { c.DisableUopCache = true })
	b := power.Compute(res, power.DefaultTable())
	decShare := b.Decoder / b.Total()
	icShare := b.ICache / b.Total()
	if decShare < 0.06 || decShare > 0.25 {
		t.Errorf("decoder share %.3f, want near 0.125", decShare)
	}
	if icShare < 0.03 || icShare > 0.18 {
		t.Errorf("icache share %.3f, want near 0.077", icShare)
	}
}

// TestUopCacheSavesEnergy: adding the micro-op cache must reduce total
// energy (the paper's 8.1% saving with LRU).
func TestUopCacheSavesEnergy(t *testing.T) {
	tbl := power.DefaultTable()
	without := power.Compute(runClang(t, func(c *frontend.Config) { c.DisableUopCache = true }), tbl)
	with := power.Compute(runClang(t, nil), tbl)
	if with.Total() >= without.Total() {
		t.Errorf("uop cache increased energy: %v vs %v", with.Total(), without.Total())
	}
	saving := 1 - with.Total()/without.Total()
	// Our saving runs above the paper's 8.1% because the whole-run energy
	// includes the static/cycle term, which shrinks with the IPC gain the
	// cache provides on these traces.
	if saving < 0.01 || saving > 0.5 {
		t.Errorf("saving %.3f, want a meaningful positive fraction", saving)
	}
}

func TestPPWAndBreakdown(t *testing.T) {
	res := runClang(t, nil)
	b := power.Compute(res, power.DefaultTable())
	if b.Total() <= 0 {
		t.Fatal("zero energy")
	}
	if b.FrontendShare() <= 0 || b.FrontendShare() >= 1 {
		t.Errorf("frontend share = %v", b.FrontendShare())
	}
	if power.PPW(res, b) <= 0 {
		t.Error("PPW should be positive")
	}
	var zero power.Breakdown
	if zero.FrontendShare() != 0 {
		t.Error("empty breakdown share")
	}
	if power.PPW(res, zero) != 0 {
		t.Error("empty breakdown PPW")
	}
}

// TestEnergyScalesWithMisses: a run that decodes more micro-ops must burn
// more decoder energy.
func TestEnergyScalesWithMisses(t *testing.T) {
	tbl := power.DefaultTable()
	real := power.Compute(runClang(t, nil), tbl)
	disabled := power.Compute(runClang(t, func(c *frontend.Config) { c.DisableUopCache = true }), tbl)
	if disabled.Decoder <= real.Decoder {
		t.Errorf("no-uop-cache decoder energy %v should exceed LRU's %v", disabled.Decoder, real.Decoder)
	}
	if real.UopCache <= 0 {
		t.Error("uop cache energy missing in LRU run")
	}
}
