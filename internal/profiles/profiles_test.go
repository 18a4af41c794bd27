package profiles

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"uopsim/internal/policy"
	"uopsim/internal/trace"
	"uopsim/internal/uopcache"
)

func pw(start uint64, uops int) trace.PW {
	return trace.PW{Start: start, NumUops: uint16(uops), Bytes: uint16(uops * 4),
		NumInst: uint16(uops)}
}

func cfg() uopcache.Config {
	return uopcache.Config{Entries: 16, Ways: 8, UopsPerEntry: 8, InsertDelay: 1}
}

// hotColdTrace: a hot window looked up constantly, cold windows streamed.
func hotColdTrace() []trace.PW {
	rng := rand.New(rand.NewSource(3))
	var s []trace.PW
	hot := uint64(0x1000)
	for i := 0; i < 3000; i++ {
		s = append(s, pw(hot, 4))
		if rng.Float64() < 0.7 {
			s = append(s, pw(uint64(0x2000+rng.Intn(300)*16), 4))
		}
	}
	return s
}

func TestCollectRatesOrdering(t *testing.T) {
	s := hotColdTrace()
	p := Collect(s, cfg(), SourceFLACK)
	hot := p.Rates[0x1000]
	if hot.Lookups < 2900 {
		t.Fatalf("hot lookups = %d", hot.Lookups)
	}
	if hot.Value() < 0.8 {
		t.Errorf("hot window hit rate %.2f, want high", hot.Value())
	}
	// Average cold rate must be far below the hot rate.
	var coldSum float64
	var coldN int
	for k, r := range p.Rates {
		if k != 0x1000 {
			coldSum += r.Value()
			coldN++
		}
	}
	if coldN == 0 {
		t.Fatal("no cold windows")
	}
	if coldSum/float64(coldN) > hot.Value()-0.2 {
		t.Errorf("cold avg %.2f vs hot %.2f: not separated", coldSum/float64(coldN), hot.Value())
	}
}

func TestCollectSources(t *testing.T) {
	s := hotColdTrace()[:2000]
	for _, src := range []Source{SourceFLACK, SourceBelady, SourceFOO} {
		p := Collect(s, cfg(), src)
		if p.Source != src {
			t.Errorf("source = %v", p.Source)
		}
		if len(p.Rates) == 0 {
			t.Errorf("%v: empty profile", src)
		}
	}
}

func TestSourceString(t *testing.T) {
	if SourceFLACK.String() != "flack" || SourceBelady.String() != "belady" ||
		SourceFOO.String() != "foo" || Source(9).String() != "unknown" {
		t.Error("source names")
	}
}

func TestWeightsSeparateHotFromCold(t *testing.T) {
	s := hotColdTrace()
	p := Collect(s, cfg(), SourceFLACK)
	w := p.Weights(cfg(), 3)
	hotW := w[0x1000]
	// The hot window must be in a higher group than the median cold one.
	var coldWs []int
	for k, x := range w {
		if k != 0x1000 {
			coldWs = append(coldWs, int(x))
		}
	}
	if len(coldWs) == 0 {
		t.Fatal("no cold weights")
	}
	sum := 0
	for _, x := range coldWs {
		sum += x
	}
	avg := float64(sum) / float64(len(coldWs))
	if float64(hotW) <= avg {
		t.Errorf("hot weight %d not above cold average %.1f", hotW, avg)
	}
	for _, x := range w {
		if x > 7 {
			t.Errorf("weight %d out of 3-bit range", x)
		}
	}
}

func TestWeightsBitsBound(t *testing.T) {
	s := hotColdTrace()[:1500]
	p := Collect(s, cfg(), SourceFLACK)
	for bits := 1; bits <= 8; bits++ {
		w := p.Weights(cfg(), bits)
		max := uint8(0)
		for _, x := range w {
			if x > max {
				max = x
			}
		}
		if int(max) >= 1<<bits {
			t.Errorf("bits=%d: weight %d out of range", bits, max)
		}
	}
	// bits<=0 falls back to 3.
	w := p.Weights(cfg(), 0)
	for _, x := range w {
		if x > 7 {
			t.Errorf("default bits: weight %d", x)
		}
	}
}

func TestWeightsDeterministic(t *testing.T) {
	s := hotColdTrace()[:1500]
	p := Collect(s, cfg(), SourceFLACK)
	w1 := p.Weights(cfg(), 3)
	w2 := p.Weights(cfg(), 3)
	if len(w1) != len(w2) {
		t.Fatal("sizes differ")
	}
	for k, v := range w1 {
		if w2[k] != v {
			t.Fatalf("weight for %#x differs: %d vs %d", k, v, w2[k])
		}
	}
}

func TestThermoClasses(t *testing.T) {
	s := hotColdTrace()
	p := Collect(s, cfg(), SourceFLACK)
	cl := p.ThermoClasses()
	if cl[0x1000] != policy.ThermoHot {
		t.Errorf("hot window classified %v", cl[0x1000])
	}
	counts := map[policy.ThermoClass]int{}
	for _, c := range cl {
		counts[c]++
	}
	if counts[policy.ThermoCold] == 0 {
		t.Error("no cold windows classified")
	}
}

func TestMerge(t *testing.T) {
	a := &Profile{Source: SourceFLACK, Rates: map[uint64]Rate{
		1: {HitUops: 10, TotalUops: 20, Lookups: 5},
		2: {HitUops: 0, TotalUops: 8, Lookups: 2},
	}}
	b := &Profile{Source: SourceFLACK, Rates: map[uint64]Rate{
		1: {HitUops: 10, TotalUops: 20, Lookups: 5},
		3: {HitUops: 4, TotalUops: 4, Lookups: 1},
	}}
	m := Merge(a, nil, b)
	if got := m.Rates[1]; got.HitUops != 20 || got.TotalUops != 40 || got.Lookups != 10 {
		t.Errorf("merged rate = %+v", got)
	}
	if len(m.Rates) != 3 {
		t.Errorf("merged size = %d", len(m.Rates))
	}
	if m.Rates[1].Value() != 0.5 {
		t.Errorf("value = %v", m.Rates[1].Value())
	}
}

func TestRateValueEmpty(t *testing.T) {
	if (Rate{}).Value() != 0 {
		t.Error("empty rate value")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := hotColdTrace()[:1000]
	p := Collect(s, cfg(), SourceBelady)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source != SourceBelady {
		t.Errorf("source = %v", got.Source)
	}
	if len(got.Rates) != len(p.Rates) {
		t.Fatalf("sizes: %d vs %d", len(got.Rates), len(p.Rates))
	}
	for k, v := range p.Rates {
		if got.Rates[k] != v {
			t.Fatalf("rate %#x differs", k)
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := []string{
		"",
		"garbage header\n",
		"uopprofile nosuch\n",
		"uopprofile flack\nnot-a-record\n",
	}
	for _, in := range cases {
		if _, err := Load(strings.NewReader(in)); err == nil {
			t.Errorf("Load(%q) should fail", in)
		}
	}
}
