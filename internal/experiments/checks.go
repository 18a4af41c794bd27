package experiments

import "fmt"

// CheckResult reports whether a generated table preserves the paper's
// qualitative claims (who wins, by roughly what factor, where the knees
// are). Absolute numbers are NOT checked — the substrate is a simulator and
// the workloads synthetic; shape is the reproduction contract (DESIGN.md §6).
type CheckResult struct {
	Experiment string
	Passed     []string
	Failed     []string
}

// OK reports whether every claim held.
func (c CheckResult) OK() bool { return len(c.Failed) == 0 }

type claim struct {
	desc string
	hold func(t *Table) (bool, string)
}

// greater asserts mean(a) > mean(b).
func greater(a, b string) claim {
	return claim{
		desc: fmt.Sprintf("mean(%s) > mean(%s)", a, b),
		hold: func(t *Table) (bool, string) {
			va, oka := meanOf(t, a)
			vb, okb := meanOf(t, b)
			if !oka || !okb {
				return false, fmt.Sprintf("missing columns %q/%q", a, b)
			}
			return va > vb, fmt.Sprintf("%.2f vs %.2f", va, vb)
		},
	}
}

// positive asserts mean(col) > 0.
func positive(col string) claim {
	return claim{
		desc: fmt.Sprintf("mean(%s) > 0", col),
		hold: func(t *Table) (bool, string) {
			v, ok := meanOf(t, col)
			if !ok {
				return false, "missing column " + col
			}
			return v > 0, fmt.Sprintf("%.2f", v)
		},
	}
}

// rowMean is the mean of column col over every row of t.
func rowMean(t *Table, col string) (float64, bool) {
	sum := 0.0
	for _, r := range t.Rows {
		v, ok := t.num(r, col)
		if !ok {
			return 0, false
		}
		sum += v
	}
	return sum / float64(len(t.Rows)), len(t.Rows) > 0
}

// checks maps experiment ids to the paper's qualitative claims.
func checks(id string) []claim {
	switch id {
	case "fig2":
		// The perfect micro-op cache gives the largest PPW gain.
		return []claim{
			greater("perfect uop cache", "perfect icache"),
			greater("perfect uop cache", "perfect BP"),
			greater("perfect uop cache", "perfect BTB"),
		}
	case "sec3b":
		return []claim{{
			desc: "capacity misses dominate under LRU",
			hold: func(t *Table) (bool, string) {
				r := t.find("MEAN", "lru")
				coldv, ok1 := t.num(r, "cold")
				capv, ok2 := t.num(r, "capacity")
				confv, ok3 := t.num(r, "conflict")
				if !ok1 || !ok2 || !ok3 {
					return false, "no LRU mean row"
				}
				return capv > coldv && capv > confv,
					fmt.Sprintf("cold %.1f / capacity %.1f / conflict %.1f", coldv, capv, confv)
			},
		}}
	case "sec3e":
		return []claim{{
			desc: "PW reuse distances more scattered than icache lines and BTB entries",
			hold: func(t *Table) (bool, string) {
				pw, ok1 := meanOf(t, "PW frac > 30")
				ic, ok2 := meanOf(t, "icache-line frac > 30")
				br, ok3 := meanOf(t, "branch-PC frac > 30")
				if !ok1 || !ok2 || !ok3 {
					return false, "no mean row"
				}
				return pw > ic && pw > br, fmt.Sprintf("pw %.1f ic %.1f btb %.1f", pw, ic, br)
			},
		}}
	case "fig5":
		return []claim{
			greater("flack", "ghrp"),
			greater("flack", "srrip"),
			greater("flack", "thermometer"),
			positive("flack"),
		}
	case "fig8":
		return []claim{
			positive("furbys"),
			greater("furbys", "srrip"),
			greater("furbys", "ship++"),
			greater("furbys", "ghrp"),
			greater("furbys", "mockingjay"),
			greater("furbys", "thermometer"),
			greater("flack", "furbys"),
		}
	case "fig9":
		return []claim{positive("furbys"), greater("furbys", "ghrp"), greater("furbys", "srrip")}
	case "fig10":
		return []claim{
			greater("flack", "belady"),
			greater("flack", "foo"),
			greater("foo+A", "foo"),
			positive("flack"),
		}
	case "fig11":
		return []claim{
			positive("furbys"),
			greater("infinite uop cache", "furbys"),
			greater("flack", "srrip"),
		}
	case "fig12":
		return []claim{{
			desc: "FURBYS@512 beats LRU@512 and LRU needs more capacity to match",
			hold: func(t *Table) (bool, string) {
				lru512, ok1 := t.num(t.find("lru@512"), fig12MissRate)
				furbys, ok2 := t.num(t.find("furbys@512"), fig12MissRate)
				if !ok1 || !ok2 {
					return false, "missing lru@512 or furbys@512"
				}
				match := "no larger LRU"
				i := isoMatch(t)
				if i >= 0 {
					match = fig12Configs[i].label
				}
				return furbys < lru512 && i >= 0,
					fmt.Sprintf("miss rate furbys@512 %.4f vs lru@512 %.4f; matched by %s", furbys, lru512, match)
			},
		}}
	case "fig13":
		return []claim{{
			desc: "uop cache saves energy; FURBYS saves more than LRU",
			hold: func(t *Table) (bool, string) {
				lru, _ := t.num(t.find("lru"), "total vs no-uop-cache")
				furbys, _ := t.num(t.find("furbys"), "total vs no-uop-cache")
				return lru < 100 && furbys < lru, fmt.Sprintf("total lru %.1f%% furbys %.1f%% of baseline", lru, furbys)
			},
		}}
	case "fig15":
		return []claim{greater("flack-profile", "foo-profile")}
	case "fig18":
		return []claim{{
			desc: "cross-input profile retains most of the same-input reduction",
			hold: func(t *Table) (bool, string) {
				same, ok1 := meanOf(t, "same-input")
				cross, ok2 := meanOf(t, "cross-input")
				if !ok1 || !ok2 {
					return false, "missing columns"
				}
				return cross > 0 && cross > 0.5*same, fmt.Sprintf("same %.2f cross %.2f", same, cross)
			},
		}}
	case "fig21":
		return []claim{greater("bypass on", "bypass off")}
	case "fig22":
		return []claim{{
			desc: "hot deciles hit well under every policy; FLACK bounds FURBYS overall",
			hold: func(t *Table) (bool, string) {
				if len(t.Rows) != 10 {
					return false, "not 10 deciles"
				}
				for _, p := range t.Columns[1:] {
					hot, ok1 := t.num(t.Rows[0], p)
					cold, ok2 := t.num(t.Rows[9], p)
					if !ok1 || !ok2 || hot <= cold {
						return false, fmt.Sprintf("%s hot %.1f vs cold %.1f", p, hot, cold)
					}
				}
				flack, ok1 := rowMean(t, "flack")
				furbys, ok2 := rowMean(t, "furbys")
				if !ok1 || !ok2 {
					return false, "missing flack or furbys"
				}
				return flack >= furbys, fmt.Sprintf("every hot decile beats its cold one; mean flack %.1f vs furbys %.1f", flack, furbys)
			},
		}}
	case "coverage":
		return []claim{{
			desc: "FURBYS selects the overwhelming majority of victims",
			hold: func(t *Table) (bool, string) {
				v, ok := meanOf(t, "furbys-selected victims")
				if !ok {
					return false, "missing column"
				}
				return v > 60, fmt.Sprintf("%.1f%%", v)
			},
		}}
	default:
		return nil
	}
}

// Check validates a generated table against the paper's claims for its
// experiment. Experiments without registered claims return an empty result.
func Check(t *Table) CheckResult {
	res := CheckResult{Experiment: t.Name}
	for _, c := range checks(t.Name) {
		ok, detail := c.hold(t)
		line := fmt.Sprintf("%s (%s)", c.desc, detail)
		if ok {
			res.Passed = append(res.Passed, line)
		} else {
			res.Failed = append(res.Failed, line)
		}
	}
	return res
}
