package backend

import (
	"testing"

	"uopsim/internal/cache"
	"uopsim/internal/trace"
	"uopsim/internal/workload"
)

// refData is the data side written from the definition: a data address is
// the hash's remainder modulo the footprint, and every miss multiplies its
// latency by Overlap afresh. The explicit float64 conversion rounds each
// product before the sum, as Data's precomputed products are, where a
// target could otherwise fuse the multiply and add.
type refData struct {
	cfg        Config
	l1d, l2    *cache.Cache
	stallCarry float64
	Stats      Stats
}

func newRefData(cfg Config) *refData {
	return &refData{cfg: cfg, l1d: cache.New(cfg.L1D), l2: cache.New(cfg.L2)}
}

func (d *refData) Stall(uops, insts int, addr uint64) int {
	d.Stats.RetiredUops += uint64(uops)
	d.Stats.RetiredInsts += uint64(insts)
	memOps := int(float64(uops)*d.cfg.MemFrac + 0.5)
	stall := 0.0
	for i := 0; i < memOps; i++ {
		da := mix64(addr+uint64(i)*0x9E3779B9) % d.cfg.DataFootprint
		d.Stats.L1DAccesses++
		if d.l1d.Access(da) {
			continue
		}
		d.Stats.L1DMisses++
		d.Stats.L2Accesses++
		if d.l2.Access(da) {
			stall += float64(float64(d.cfg.L2Latency) * d.cfg.Overlap)
		} else {
			d.Stats.L2Misses++
			stall += float64(float64(d.cfg.DRAMLatency) * d.cfg.Overlap)
		}
	}
	d.stallCarry += stall
	if d.stallCarry < 1 {
		return 0
	}
	whole := int(d.stallCarry)
	d.stallCarry -= float64(whole)
	d.Stats.StallCycles += uint64(whole)
	return whole
}

// TestDataStallMatchesReference runs every application's windows through
// Data and refData and requires the same stall per window and the same
// Stats, with the default 8 MiB footprint and with an overlap whose
// products are inexact in binary.
func TestDataStallMatchesReference(t *testing.T) {
	inexact := DefaultConfig()
	inexact.Overlap, inexact.L2Latency, inexact.DRAMLatency = 0.3, 17, 113
	cfgs := map[string]Config{"8MiB": DefaultConfig(), "inexact": inexact}
	for _, app := range workload.Names() {
		spec, err := workload.Get(app)
		if err != nil {
			t.Fatal(err)
		}
		pws := trace.FormPWs(workload.GenerateSpec(spec, 10000, 0), 0)
		for name, cfg := range cfgs {
			d, ref := NewData(cfg), newRefData(cfg)
			for k, pw := range pws {
				got := d.Stall(int(pw.NumUops), int(pw.NumInst), pw.Start)
				want := ref.Stall(int(pw.NumUops), int(pw.NumInst), pw.Start)
				if got != want {
					t.Fatalf("%s/%s: window %d of %d stalls %d, reference %d", app, name, k, len(pws), got, want)
				}
			}
			if d.Stats != ref.Stats {
				t.Fatalf("%s/%s: stats %+v, reference %+v", app, name, d.Stats, ref.Stats)
			}
			if d.Stats.L2Misses == 0 {
				t.Fatalf("%s/%s: no L2 miss, so the stall products went untested", app, name)
			}
		}
	}
}

// TestDataFootprintPowerOfTwo checks that NewData rejects a footprint that
// is not a power of two, which its masked address cannot cover.
func TestDataFootprintPowerOfTwo(t *testing.T) {
	for _, fp := range []uint64{0, 6 << 20, 3} {
		cfg := DefaultConfig()
		cfg.DataFootprint = fp
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewData accepted a %d-byte footprint", fp)
				}
			}()
			NewData(cfg)
		}()
	}
}
