package frontend

import (
	"testing"

	"uopsim/internal/backend"
	"uopsim/internal/branch"
	"uopsim/internal/trace"
	"uopsim/internal/workload"
)

// BenchmarkNewPath measures the policy-independent half of a timing run
// over the 11 applications at 10,000 blocks each, the timing workload's
// size: each of NewPath's three layers alone, then the whole of it. The
// traces and their windows are built outside the timed loop. Run it with
//
//	go test -run '^$' -bench NewPath -benchmem ./internal/frontend
//
// The sub-benchmarks and their units:
//   - data: a fresh backend data side stalls every window (Data.Stall),
//     in ns per L1d access;
//   - predictor: a fresh predictor processes every block, in ns per
//     branch;
//   - walk: the window walk places every window at its block, in ns per
//     window;
//   - path: NewPath, all three, in ns per block and per window.
//
// Each sub-benchmark stores what it computes in benchSink, so that none of
// the calls can be dropped.
func BenchmarkNewPath(b *testing.B) {
	type app struct {
		blocks []trace.Block
		pws    []trace.PW
	}
	bcfg, becfg := branch.DefaultConfig(), backend.DefaultConfig()
	var apps []app
	var blocks, windows, branches, accesses int
	for _, name := range workload.Names() {
		spec, err := workload.Get(name)
		if err != nil {
			b.Fatal(err)
		}
		bl := workload.GenerateSpec(spec, 10000, 0)
		pws := trace.FormPWs(bl, 0)
		apps = append(apps, app{bl, pws})
		p := NewPath(bl, pws, bcfg, becfg)
		blocks += len(bl)
		windows += len(pws)
		branches += int(p.branchStats.Branches)
		accesses += int(p.backendStats.L1DAccesses)
	}
	per := func(b *testing.B, n int, unit string) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), unit)
	}
	b.Run("data", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, a := range apps {
				d := backend.NewData(becfg)
				for k := range a.pws {
					pw := &a.pws[k]
					benchSink += d.Stall(int(pw.NumUops), int(pw.NumInst), pw.Start)
				}
			}
		}
		per(b, accesses, "ns/access")
	})
	b.Run("predictor", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, a := range apps {
				bp := branch.New(bcfg)
				for i := range a.blocks {
					if bp.Process(a.blocks[i]).Mispredicted {
						benchSink++
					}
				}
			}
		}
		per(b, branches, "ns/branch")
	})
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, a := range apps {
				w := newWindowWalk(a.blocks, a.pws)
				for k := 0; ; k++ {
					at := w.emission(k)
					if at < 0 {
						break
					}
					benchSink += at
				}
			}
		}
		per(b, windows, "ns/window")
	})
	b.Run("path", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			for _, a := range apps {
				benchSink += len(NewPath(a.blocks, a.pws, bcfg, becfg).steps)
			}
		}
		per(b, blocks, "ns/block")
		per(b, windows, "ns/window")
	})
}

var benchSink int
