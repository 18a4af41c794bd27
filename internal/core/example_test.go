package core_test

import (
	"fmt"
	"log"
	"sort"

	"uopsim/internal/core"
	"uopsim/internal/policy"
	"uopsim/internal/profiles"
)

// Example_quickstart generates a data-center workload trace, runs the
// micro-op cache under LRU and under the paper's FURBYS policy, and prints
// the headline miss reduction next to the offline FLACK bound.
func Example_quickstart() {
	cfg := core.DefaultConfig() // the paper's Table I (Zen3-like) setup

	// STEP 1-2: trace collection and PW lookup sequence (the synthetic
	// stand-in for Intel PT).
	_, pws, err := core.TraceFor("kafka", 40000, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kafka: %d PW lookups\n", len(pws))

	// Baseline: LRU.
	lru := core.RunBehavior(pws, cfg, policy.NewLRU(), core.BehaviorOptions{})
	fmt.Printf("LRU     miss rate %.4f\n", lru.Stats.UopMissRate())

	// STEPS 3-6: collect a FLACK profile and build the FURBYS weights.
	prof := profiles.Collect(pws, cfg.UopCache, profiles.SourceFLACK)
	furbys := policy.NewFURBYS(policy.DefaultFURBYSConfig(), prof.Weights(cfg.UopCache, 3))

	// STEP 7: deploy.
	res := core.RunBehavior(pws, cfg, furbys, core.BehaviorOptions{})
	fmt.Printf("FURBYS  miss rate %.4f\n", res.Stats.UopMissRate())
	fmt.Printf("miss reduction vs LRU: %.2f%%\n", 100*core.MissReduction(lru.Stats, res.Stats))

	// The offline near-optimal bound.
	flack, err := core.RunBehaviorByName("flack", pws, cfg, core.BehaviorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FLACK   miss rate %.4f (offline bound, %.2f%% reduction)\n",
		flack.Stats.UopMissRate(), 100*core.MissReduction(lru.Stats, flack.Stats))
	// Output:
	// kafka: 47893 PW lookups
	// LRU     miss rate 0.0186
	// FURBYS  miss rate 0.0151
	// miss reduction vs LRU: 18.98%
	// FLACK   miss rate 0.0119 (offline bound, 36.02% reduction)
}

// Example_policyComparison runs every replacement policy the paper
// evaluates, online and offline, over one application and ranks them by
// miss reduction over LRU: Figs. 5 and 8 for a single workload.
func Example_policyComparison() {
	cfg := core.DefaultConfig()
	_, pws, err := core.TraceFor("wordpress", 30000, 0)
	if err != nil {
		log.Fatal(err)
	}
	base, err := core.RunBehaviorByName("lru", pws, cfg, core.BehaviorOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wordpress: %d PW lookups, LRU uop miss rate %.4f\n", len(pws), base.Stats.UopMissRate())

	type row struct {
		name, kind string
		red        float64
	}
	var rows []row
	rank := func(kind string, names []string) {
		for _, name := range names {
			res, err := core.RunBehaviorByName(name, pws, cfg, core.BehaviorOptions{})
			if err != nil {
				log.Fatal(err)
			}
			rows = append(rows, row{name, kind, core.MissReduction(base.Stats, res.Stats)})
		}
	}
	rank("online", []string{"random", "srrip", "ship++", "ghrp", "mockingjay", "thermometer", "furbys"})
	rank("offline", core.OfflineNames())
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].red > rows[j].red })

	fmt.Printf("%-12s %-8s %s\n", "policy", "kind", "miss reduction vs LRU")
	for _, r := range rows {
		fmt.Printf("%-12s %-8s %+7.2f%%\n", r.name, r.kind, 100*r.red)
	}
	// The paper's shape: FLACK above Belady above every online policy,
	// and FURBYS the best online policy.

	// Output:
	// wordpress: 29234 PW lookups, LRU uop miss rate 0.2975
	// policy       kind     miss reduction vs LRU
	// flack        offline   +43.44%
	// belady       offline   +29.24%
	// furbys       online    +24.72%
	// thermometer  online    +16.40%
	// foo          offline   +14.69%
	// mockingjay   online     +5.63%
	// ship++       online     +5.17%
	// srrip        online     +4.30%
	// ghrp         online     +1.00%
	// random       online     -7.95%
}
