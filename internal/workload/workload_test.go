package workload

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"uopsim/internal/trace"
)

// TestStaticBlockSize pins the static block at 48 bytes: every field is
// read when the generator walks the program, and none pads the struct.
func TestStaticBlockSize(t *testing.T) {
	if n := unsafe.Sizeof(bblock{}); n != 48 {
		t.Errorf("bblock is %d bytes, want 48", n)
	}
}

func TestCatalogHasElevenApps(t *testing.T) {
	cat := Catalog()
	if len(cat) != 11 {
		t.Fatalf("catalog has %d apps, want 11", len(cat))
	}
	want := []string{"cassandra", "kafka", "tomcat", "drupal", "mediawiki",
		"wordpress", "postgres", "mysql", "python", "finagle", "clang"}
	if !reflect.DeepEqual(Names(), want) {
		t.Errorf("Names() = %v", Names())
	}
	seen := map[int64]bool{}
	for _, s := range cat {
		if s.Funcs <= 0 || s.MinBlocks <= 0 || s.MaxBlocks < s.MinBlocks {
			t.Errorf("%s: bad size params %+v", s.Name, s)
		}
		if s.FlakyFrac <= 0 || s.FlakyFrac > 0.9 {
			t.Errorf("%s: FlakyFrac = %v", s.Name, s.FlakyFrac)
		}
		if s.PhaseLen <= 0 || s.Phases <= 0 {
			t.Errorf("%s: phase params %+v", s.Name, s)
		}
		if seen[s.Seed] {
			t.Errorf("%s: duplicate seed %d", s.Name, s.Seed)
		}
		seen[s.Seed] = true
		if s.StaticPWEstimate() < 1000 {
			t.Errorf("%s: footprint estimate %d too small to pressure a 512-entry cache", s.Name, s.StaticPWEstimate())
		}
	}
}

func TestGetKnownAndUnknown(t *testing.T) {
	s, err := Get("kafka")
	if err != nil || s.Name != "kafka" {
		t.Errorf("Get(kafka) = %+v, %v", s, err)
	}
	if _, err := Get("notanapp"); err == nil {
		t.Error("Get(notanapp) should fail")
	}
}

func TestFlakyFromMPKI(t *testing.T) {
	if got := flakyFromMPKI(4.5); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("flakyFromMPKI(4.5) = %v, want 0.1", got)
	}
	if got := flakyFromMPKI(1000); got != 0.9 {
		t.Errorf("flakyFromMPKI(1000) = %v, want clamp 0.9", got)
	}
}

func TestBuildDeterministic(t *testing.T) {
	s, _ := Get("postgres")
	p1 := s.Build()
	p2 := s.Build()
	if p1.NumFuncs() != p2.NumFuncs() {
		t.Fatal("func counts differ")
	}
	if !reflect.DeepEqual(p1.rank, p2.rank) {
		t.Error("popularity ranks differ across builds")
	}
	for i := range p1.funcs {
		if !reflect.DeepEqual(p1.funcs[i], p2.funcs[i]) {
			t.Fatalf("function %d differs across builds", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := Get("kafka")
	p := s.Build()
	t1 := p.Generate(5000, 0)
	t2 := p.Generate(5000, 0)
	if !reflect.DeepEqual(t1, t2) {
		t.Error("same input variant should generate identical traces")
	}
	t3 := p.Generate(5000, 1)
	if reflect.DeepEqual(t1[:1000], t3[:1000]) {
		t.Error("different input variants should generate different traces")
	}
}

// TestGenerateControlFlowConsistency verifies the emitted stream is a valid
// control-flow walk: after a not-taken or fall-through block, the next block
// starts at the fall-through address; after a taken branch (with known
// target), the next block starts at the target.
func TestGenerateControlFlowConsistency(t *testing.T) {
	s, _ := Get("mysql")
	blocks := GenerateSpec(s, 20000, 0)
	if len(blocks) < 20000 {
		t.Fatalf("trace too short: %d", len(blocks))
	}
	bad := 0
	for i := 0; i+1 < len(blocks); i++ {
		b, nxt := blocks[i], blocks[i+1]
		var want uint64
		if b.Taken {
			want = b.Target
			if want == 0 {
				continue // unpatched top-level ret at trace tail
			}
		} else {
			want = b.FallThrough()
		}
		if nxt.Addr != want {
			bad++
			if bad < 5 {
				t.Errorf("block %d: next addr %#x, want %#x (block %+v)", i, nxt.Addr, want, b)
			}
		}
	}
	if frac := float64(bad) / float64(len(blocks)); frac > 0.001 {
		t.Errorf("%.4f%% control-flow discontinuities, want ~0", 100*frac)
	}
}

// TestGenerateSaneBlocks checks structural invariants of every block.
func TestGenerateSaneBlocks(t *testing.T) {
	s, _ := Get("python")
	blocks := GenerateSpec(s, 10000, 0)
	for i, b := range blocks {
		if b.NumInst == 0 || b.Bytes == 0 || b.NumUops == 0 {
			t.Fatalf("block %d degenerate: %+v", i, b)
		}
		if b.Kind == trace.BranchNone && b.Taken {
			t.Fatalf("block %d: taken without a branch: %+v", i, b)
		}
		if b.Kind == trace.BranchUncond && !b.Taken {
			t.Fatalf("block %d: not-taken unconditional: %+v", i, b)
		}
	}
}

// TestGenerateBranchStats verifies conditional-branch density and flaky
// behaviour produce both taken and not-taken executions of the same branch —
// the precondition for overlapping PWs.
func TestGenerateBranchStats(t *testing.T) {
	s, _ := Get("wordpress")
	blocks := GenerateSpec(s, 50000, 0)
	outcomes := map[uint64][2]int{} // branchPC -> [notTaken, taken]
	var conds, insts int
	for _, b := range blocks {
		insts += int(b.NumInst)
		if b.Kind == trace.BranchCond {
			conds++
			o := outcomes[b.BranchPC]
			if b.Taken {
				o[1]++
			} else {
				o[0]++
			}
			outcomes[b.BranchPC] = o
		}
	}
	if conds == 0 {
		t.Fatal("no conditional branches")
	}
	both := 0
	for _, o := range outcomes {
		if o[0] > 0 && o[1] > 0 {
			both++
		}
	}
	if frac := float64(both) / float64(len(outcomes)); frac < 0.05 {
		t.Errorf("only %.2f%% of conditionals observed both directions; overlapping PWs need more", 100*frac)
	}
	condPerKI := float64(conds) / float64(insts) * 1000
	if condPerKI < 30 || condPerKI > 250 {
		t.Errorf("conditional branches per KI = %.1f, outside plausible range", condPerKI)
	}
}

// TestGenerateFootprintAndSkew checks the PW working set exceeds the cache
// capacity and popularity is skewed (hot PWs dominate lookups).
func TestGenerateFootprintAndSkew(t *testing.T) {
	s, _ := Get("clang")
	blocks := GenerateSpec(s, 80000, 0)
	pws := trace.FormPWs(blocks, 0)
	counts := map[uint64]int{}
	for _, p := range pws {
		counts[p.Start]++
	}
	if len(counts) < 1500 {
		t.Errorf("static PW footprint %d too small (cache holds ~500 PWs)", len(counts))
	}
	// Sort counts descending and check top-10% share.
	all := make([]int, 0, len(counts))
	for _, c := range counts {
		all = append(all, c)
	}
	total := 0
	for _, c := range all {
		total += c
	}
	// selection of top decile
	top := len(all) / 10
	// simple partial selection: count how many lookups the top decile has
	sorted := append([]int(nil), all...)
	for i := 0; i < top; i++ { // partial selection sort is fine at this size
		maxJ := i
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[maxJ] {
				maxJ = j
			}
		}
		sorted[i], sorted[maxJ] = sorted[maxJ], sorted[i]
	}
	topSum := 0
	for i := 0; i < top; i++ {
		topSum += sorted[i]
	}
	if share := float64(topSum) / float64(total); share < 0.4 {
		t.Errorf("top-decile PW share = %.2f, want skewed (>0.4)", share)
	}
}

// TestGenerateVariableCost checks PW micro-op counts vary (variable cost).
func TestGenerateVariableCost(t *testing.T) {
	s, _ := Get("drupal")
	blocks := GenerateSpec(s, 30000, 0)
	pws := trace.FormPWs(blocks, 0)
	hist := map[int]int{}
	for _, p := range pws {
		hist[p.Entries(8)]++
	}
	if len(hist) < 2 {
		t.Errorf("all PWs occupy the same entry count: %v", hist)
	}
	small, large := 0, 0
	for _, p := range pws {
		if p.NumUops <= 4 {
			small++
		}
		if p.NumUops >= 9 {
			large++
		}
	}
	if small == 0 || large == 0 {
		t.Errorf("cost distribution not variable: small=%d large=%d of %d", small, large, len(pws))
	}
}

// TestGeneratePhases verifies different phases shift the working set: the
// set of hot PWs in an early window differs from a later window.
func TestGeneratePhases(t *testing.T) {
	s, _ := Get("tomcat")
	blocks := GenerateSpec(s, 120000, 0)
	pws := trace.FormPWs(blocks, 0)
	third := len(pws) / 3
	early := map[uint64]int{}
	late := map[uint64]int{}
	for _, p := range pws[:third] {
		early[p.Start]++
	}
	for _, p := range pws[2*third:] {
		late[p.Start]++
	}
	onlyEarly := 0
	for k := range early {
		if late[k] == 0 {
			onlyEarly++
		}
	}
	if frac := float64(onlyEarly) / float64(len(early)); frac < 0.05 {
		t.Errorf("working set appears static: only %.2f%% phase-exclusive PWs", 100*frac)
	}
}

func TestZipfWeights(t *testing.T) {
	cdf := zipfWeights(10, 1.0)
	if len(cdf) != 10 {
		t.Fatal("bad length")
	}
	if math.Abs(cdf[9]-1.0) > 1e-9 {
		t.Errorf("cdf should end at 1.0, got %v", cdf[9])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] <= cdf[i-1] {
			t.Errorf("cdf not increasing at %d", i)
		}
	}
	// First rank should dominate under s=1: p1 ≈ 0.34 for n=10.
	if cdf[0] < 0.2 {
		t.Errorf("rank-1 mass %v too small", cdf[0])
	}
}

func TestSampleCDF(t *testing.T) {
	cdf := []float64{0.5, 0.8, 1.0}
	for _, tc := range []struct {
		r    float64
		want int
	}{{0.0, 0}, {0.49, 0}, {0.5, 0}, {0.51, 1}, {0.9, 2}, {1.0, 2}} {
		if got := sampleCDF(cdf, tc.r); got != tc.want {
			t.Errorf("sampleCDF(%v) = %d, want %d", tc.r, got, tc.want)
		}
	}
}

func TestMPKIOrderingAcrossApps(t *testing.T) {
	// Apps with higher TargetMPKI must get a higher FlakyFrac.
	cat := Catalog()
	for i := range cat {
		for j := range cat {
			if cat[i].TargetMPKI > cat[j].TargetMPKI && cat[i].FlakyFrac < cat[j].FlakyFrac {
				t.Errorf("%s (MPKI %.2f, flaky %.3f) vs %s (MPKI %.2f, flaky %.3f)",
					cat[i].Name, cat[i].TargetMPKI, cat[i].FlakyFrac,
					cat[j].Name, cat[j].TargetMPKI, cat[j].FlakyFrac)
			}
		}
	}
}

// TestSharedProgramGeneratesEveryInput: one program serves every input, so
// a context builds it once and generates all of an app's traces from it,
// on any number of workers. Inputs 2, 1 and 0 generated in that order, and
// then again all at once, give exactly GenerateSpec's blocks, and leave the
// program as Build made it.
func TestSharedProgramGeneratesEveryInput(t *testing.T) {
	s, _ := Get("kafka")
	const n = 3000
	inputs := []int{2, 1, 0}
	want := make([][]trace.Block, len(inputs))
	for i, in := range inputs {
		want[i] = GenerateSpec(s, n, in)
	}
	p := s.Build()
	for i, in := range inputs {
		if got := p.Generate(n, in); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("input %d in sequence differs from GenerateSpec", in)
		}
	}
	got := make([][]trace.Block, len(inputs))
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = p.Generate(n, in)
		}()
	}
	wg.Wait()
	for i, in := range inputs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("input %d generated concurrently differs from GenerateSpec", in)
		}
	}
	fresh := s.Build()
	if !reflect.DeepEqual(p.funcs, fresh.funcs) || !reflect.DeepEqual(p.rank, fresh.rank) || !reflect.DeepEqual(p.utilFuncs, fresh.utilFuncs) {
		t.Error("Generate modified the program it read")
	}
}
