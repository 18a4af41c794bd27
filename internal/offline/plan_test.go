package offline

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"uopsim/internal/artifact"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

// planSeq builds a lookup sequence long enough for a non-trivial solve.
func planSeq(n int) []trace.PW {
	rng := rand.New(rand.NewSource(7))
	s := make([]trace.PW, 0, n)
	for i := 0; i < n; i++ {
		s = append(s, pw(uint64(0x1000+rng.Intn(40)*16), 1+rng.Intn(16)))
	}
	return s
}

func TestPlanCodecRoundTrip(t *testing.T) {
	s := planSeq(500)
	for _, model := range []CostModel{CostOHR, CostBHR, CostVC} {
		for _, fold := range []bool{false, true} {
			d := ComputeDecisionsPrepared(nil, uopcache.Prepare(tinyCfg(), s), tinyCfg(), model, fold, 0, 1)
			var buf bytes.Buffer
			if err := EncodePlan(&buf, d); err != nil {
				t.Fatalf("EncodePlan(%s, fold=%v): %v", model, fold, err)
			}
			got, err := DecodePlan(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("DecodePlan(%s, fold=%v): %v", model, fold, err)
			}
			if !reflect.DeepEqual(got, d) {
				t.Fatalf("round trip changed the plan (%s, fold=%v)", model, fold)
			}
		}
	}
}

// TestPlanCodecRejectsBadInput covers every corruption class the cache can
// surface: each must produce a descriptive error — never a panic, never a
// silently wrong plan.
func TestPlanCodecRejectsBadInput(t *testing.T) {
	d := &Decisions{Keep: []bool{true, false, true, true, false, false, true, false, true}, Model: CostVC, FoldVariants: true}
	var buf bytes.Buffer
	if err := EncodePlan(&buf, d); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), valid...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"header cut short", valid[:8], "truncated"},
		{"body cut short", valid[:len(valid)-1], "truncated"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] ^= 0xFF; return b }), "magic"},
		{"future version", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[4:6], planVersion+1)
			return b
		}), "version"},
		{"unknown cost model", mutate(func(b []byte) []byte { b[6] = 200; return b }), "cost model"},
		{"implausible count", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[8:16], 1<<40)
			return b
		}), "implausible"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodePlan(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatalf("DecodePlan accepted %s (plan: %+v)", tc.name, got)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestPlanKeySensitivity(t *testing.T) {
	s := planSeq(100)
	cfg := tinyCfg()
	base := PlanKey(s, cfg, CostVC, true, 0)
	if k := PlanKey(s, cfg, CostVC, true, 0); k != base {
		t.Fatal("PlanKey is not deterministic")
	}
	// The default segment limit resolves to the same key as passing it
	// explicitly — otherwise the same solve would cache under two keys.
	if k := PlanKey(s, cfg, CostVC, true, DefaultSegmentLimit); k != base {
		t.Error("segLimit=0 and the resolved default produced different keys")
	}
	diff := map[string]string{base: "base"}
	note := func(label, key string) {
		if prev, clash := diff[key]; clash {
			t.Errorf("%s collides with %s", label, prev)
		}
		diff[key] = label
	}
	note("model", PlanKey(s, cfg, CostOHR, true, 0))
	note("fold", PlanKey(s, cfg, CostVC, false, 0))
	note("segLimit", PlanKey(s, cfg, CostVC, true, 128))
	bigger := cfg
	bigger.Ways = 4
	note("geometry", PlanKey(s, bigger, CostVC, true, 0))
	comp := cfg
	comp.Compaction = true
	note("compaction", PlanKey(s, comp, CostVC, true, 0))
	note("shorter trace", PlanKey(s[:99], cfg, CostVC, true, 0))
	moved := append([]trace.PW(nil), s...)
	moved[50].Start ^= 16
	note("start address", PlanKey(moved, cfg, CostVC, true, 0))
	resized := append([]trace.PW(nil), s...)
	resized[50].NumUops++
	note("window size", PlanKey(resized, cfg, CostVC, true, 0))
}

// TestPlanStoreRoundTrip drives the artifact-backed PlanCache end to end:
// a stored plan loads back equal, an absent key is a clean miss, and
// ComputeDecisionsCached serves the second solve from the cache.
func TestPlanStoreRoundTrip(t *testing.T) {
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plans := NewPlanStore(store)
	if NewPlanStore(nil) != nil {
		t.Fatal("NewPlanStore(nil) must disable caching")
	}
	s := planSeq(600)
	cfg := tinyCfg()
	key := PlanKey(s, cfg, CostVC, true, 0)
	if _, ok := plans.Load(key); ok {
		t.Fatal("empty store returned a plan")
	}
	cold := ComputeDecisionsCached(context.Background(), s, nil, cfg, CostVC, true, 0, 1, plans)
	cached, ok := plans.Load(key)
	if !ok {
		t.Fatal("solve was not stored")
	}
	if !reflect.DeepEqual(cached, cold) {
		t.Fatal("stored plan differs from the solved plan")
	}
	warm := ComputeDecisionsCached(context.Background(), s, nil, cfg, CostVC, true, 0, 1, plans)
	if !reflect.DeepEqual(warm, cold) {
		t.Fatal("warm plan differs from cold plan")
	}
	st := store.Stats()["plan"]
	if st.Hits == 0 {
		t.Fatalf("stats = %+v, want at least one hit", st)
	}
}

// TestComputePlanSkipsStoreWhenCancelled: a plan solved under a cancelled
// context is incomplete and must never be cached.
func TestComputePlanSkipsStoreWhenCancelled(t *testing.T) {
	store, err := artifact.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plans := NewPlanStore(store)
	s := planSeq(600)
	cfg := tinyCfg()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ComputeDecisionsCached(ctx, s, nil, cfg, CostVC, true, 0, 1, plans)
	if _, ok := plans.Load(PlanKey(s, cfg, CostVC, true, 0)); ok {
		t.Fatal("cancelled solve was stored")
	}
}

// keyLog is a PlanCache that never hits and records the keys it is asked
// for.
type keyLog struct{ keys []string }

func (k *keyLog) Load(key string) (*Decisions, bool) {
	k.keys = append(k.keys, key)
	return nil, false
}

func (k *keyLog) Store(string, *Decisions) {}

// TestPlanKeyMatchesPreparedKey: the key a solve over a prepared trace asks
// its cache for, built from the trace's kept sequence digest, is PlanKey of
// the same slice, for both cost models, both fold flags and two segment
// limits.
func TestPlanKeyMatchesPreparedKey(t *testing.T) {
	s := planSeq(600)
	cfg := tinyCfg()
	pt := uopcache.Prepare(cfg, s)
	for _, model := range []CostModel{CostOHR, CostVC} {
		for _, fold := range []bool{false, true} {
			for _, seg := range []int{0, 128} {
				log := &keyLog{}
				ComputeDecisionsCached(context.Background(), s, pt, cfg, model, fold, seg, 1, log)
				want := PlanKey(s, cfg, model, fold, seg)
				if len(log.keys) != 1 || log.keys[0] != want {
					t.Errorf("model %d fold %v seg %d: solve asked for %q, PlanKey is %q", model, fold, seg, log.keys, want)
				}
			}
		}
	}
}
