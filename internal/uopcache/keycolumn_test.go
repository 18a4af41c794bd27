package uopcache

import (
	"testing"

	"uopsim/internal/trace"
)

// nopPolicy is the least Policy New accepts; the key-column test never
// needs a victim.
type nopPolicy struct{}

func (nopPolicy) Name() string                              { return "nop" }
func (nopPolicy) Bind(Geometry)                             {}
func (nopPolicy) OnHit(int, int32, uint64)                  {}
func (nopPolicy) OnInsert(int, int32, trace.PW)             {}
func (nopPolicy) OnEvict(int, int32, uint64)                {}
func (nopPolicy) Victim(int, []Resident, trace.PW) Decision { return Decision{} }

// TestKeyColumnCoversSet: each set's key column has exactly capSlots words,
// all free after New, and filling a set hands out slots 0..capSlots-1 in
// order, each recorded as its window's start plus one, so allocSlot never
// names a slot outside the set.
func TestKeyColumnCoversSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"1 way", Config{Entries: 2, Ways: 1, UopsPerEntry: 8}, 1},
		{"8 ways", Config{Entries: 16, Ways: 8, UopsPerEntry: 8}, 8},
		{"63 ways", Config{Entries: 126, Ways: 63, UopsPerEntry: 8}, 63},
		{"64 ways", Config{Entries: 128, Ways: 64, UopsPerEntry: 8}, 64},
		{"65 ways", Config{Entries: 130, Ways: 65, UopsPerEntry: 8}, 65},
		{"128 compacted", Config{Entries: 32, Ways: 16, UopsPerEntry: 8, Compaction: true}, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.cfg, nopPolicy{})
			if c.capSlots != tc.want {
				t.Fatalf("capSlots = %d, want %d", c.capSlots, tc.want)
			}
			for si, s := range c.sets {
				if len(s.keys) != tc.want || cap(s.keys) != tc.want {
					t.Fatalf("set %d key column len %d cap %d, want %d", si, len(s.keys), cap(s.keys), tc.want)
				}
				for i, k := range s.keys {
					if k != 0 {
						t.Fatalf("set %d slot %d = %#x after New, want free", si, i, k)
					}
				}
			}
			// Both sets of every geometry here are 0 and 1; starts that
			// are multiples of 4 KiB all fold into set 0.
			for j := 0; j < tc.want; j++ {
				start := uint64(j+1) << 12
				if c.SetIndex(start) != 0 {
					t.Fatalf("start %#x maps to set %d", start, c.SetIndex(start))
				}
				if got := c.Insert(trace.PW{Start: start, NumUops: 1}); got != Inserted {
					t.Fatalf("insert %d: %v", j, got)
				}
				r, ok := c.ResidentFor(start)
				if !ok || r.Slot != int32(j) || c.sets[0].keys[j] != start+1 {
					t.Fatalf("insert %d: resident %+v %v, key %#x; want slot %d", j, r, ok, c.sets[0].keys[j], j)
				}
			}
			if c.UsedEntries(0) != tc.want {
				t.Fatalf("set 0 uses %d of %d", c.UsedEntries(0), tc.want)
			}
		})
	}
}
