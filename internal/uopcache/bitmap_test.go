package uopcache

import (
	"testing"

	"uopsim/internal/trace"
)

// nopPolicy is the least Policy New accepts; the bitmap test never looks up.
type nopPolicy struct{}

func (nopPolicy) Name() string                              { return "nop" }
func (nopPolicy) Bind(Geometry)                             {}
func (nopPolicy) OnHit(int, int32, uint64)                  {}
func (nopPolicy) OnInsert(int, int32, trace.PW)             {}
func (nopPolicy) OnEvict(int, int32, uint64)                {}
func (nopPolicy) Victim(int, []Resident, trace.PW) Decision { return Decision{} }

// TestBitmapTailMarkedOccupied: New marks every occupancy bit beyond a set's
// capSlots, and no bit below it, exactly as setting the tail one bit at a
// time would.
func TestBitmapTailMarkedOccupied(t *testing.T) {
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
			words := (c.capSlots + 63) / 64
			want := make([]uint64, words)
			for b := c.capSlots; b < words*64; b++ {
				want[b>>6] |= 1 << (uint(b) & 63)
			}
			for si, s := range c.sets {
				for w := range want {
					if s.occ[w] != want[w] {
						t.Fatalf("set %d word %d = %#x, want %#x", si, w, s.occ[w], want[w])
					}
				}
			}
		})
	}
}
