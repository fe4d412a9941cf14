package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"
)

// Item is one scheduled check. Name is the net name sent to gpod (empty
// for in-process checks); Due is the open-loop send time relative to
// the start of measurement (zero for closed loops).
type Item struct {
	Check
	Name string        `json:"name,omitempty"`
	Due  time.Duration `json:"due_ns,omitempty"`
}

// Every random choice of a workload comes from one stream seeded by the
// workload seed, so a seed fixes request order, net-name salts, bad-set
// draws and arrival times.
func newRand(seed uint64, workload string) *rand.Rand {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

func shuffle(r *rand.Rand, items []Item) []Item {
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

func draw(r *rand.Rand, pool [][]string) []string { return pool[r.IntN(len(pool))] }

// gpoExplicitRows are the Table 1 rows on which gpo-explicit finishes a
// deadlock check in tens of milliseconds.
var gpoExplicitRows = []Inst{
	{"nsdp", 2}, {"nsdp", 4}, {"nsdp", 6}, {"asat", 2}, {"asat", 4},
	{"over", 2}, {"over", 3}, {"over", 4}, {"over", 5},
	{"rw", 6}, {"rw", 9}, {"rw", 12}, {"rw", 15},
}

// gpoSafetyRows are the instances gpo-table1 runs GPO safety checks
// on, one per family: the largest size at which a safety check, which
// the GPO engine runs on the monitored net with dead states expanded,
// still ends in milliseconds. Beyond them it takes seconds (asat(8),
// rw(5)) or exhausts memory (nsdp(10)); see README.md.
var gpoSafetyRows = []Inst{{"nsdp", 4}, {"asat", 4}, {"over", 3}, {"rw", 3}}

// gpoTable1Cycle is one pass of the gpo-table1 workload: a GPO deadlock
// check on every Table 1 row, GPO safety checks of one reachable and
// one unreachable bad set per family, and gpo-explicit deadlock checks
// on its fast rows, in seeded order.
func gpoTable1Cycle(r *rand.Rand) []Item {
	var items []Item
	for _, in := range table1 {
		items = append(items, Item{Check: Check{Inst: in, Engine: "gpo", Kind: "deadlock"}})
	}
	for _, in := range gpoSafetyRows {
		reach, unreach := badPools(in)
		items = append(items,
			Item{Check: Check{Inst: in, Engine: "gpo", Kind: "safety", Bad: draw(r, reach)}},
			Item{Check: Check{Inst: in, Engine: "gpo", Kind: "safety", Bad: draw(r, unreach)}})
	}
	for _, in := range gpoExplicitRows {
		items = append(items, Item{Check: Check{Inst: in, Engine: "gpo-explicit", Kind: "deadlock"}})
	}
	return shuffle(r, items)
}

// explicitChecks are the explicit-baselines checks: the classical
// engines on 30k–524k-state instances.
func explicitChecks(workers int) []Check {
	var cs []Check
	for _, in := range []Inst{{"nsdp", 8}, {"over", 5}, {"rw", 15}, {"asat", 8}} {
		cs = append(cs,
			Check{Inst: in, Engine: "exhaustive", Kind: "deadlock"},
			Check{Inst: in, Engine: "exhaustive", Kind: "deadlock", Workers: workers})
	}
	cs = append(cs, Check{Inst: Inst{"nsdp", 10}, Engine: "exhaustive", Kind: "deadlock", Reduce: true})
	for _, in := range []Inst{{"nsdp", 8}, {"asat", 8}} {
		cs = append(cs,
			Check{Inst: in, Engine: "partial-order", Kind: "deadlock"},
			Check{Inst: in, Engine: "partial-order", Kind: "deadlock", Proviso: true})
	}
	for _, in := range []Inst{{"nsdp", 8}, {"over", 5}} {
		cs = append(cs, Check{Inst: in, Engine: "symbolic", Kind: "deadlock"})
	}
	for _, in := range []Inst{{"nsdp", 8}, {"over", 5}, {"rw", 12}} {
		cs = append(cs, Check{Inst: in, Engine: "unfolding", Kind: "deadlock"})
	}
	return cs
}

func explicitCycle(r *rand.Rand, workers int) []Item {
	var items []Item
	for _, c := range explicitChecks(workers) {
		items = append(items, Item{Check: c})
	}
	return shuffle(r, items)
}

// clusterRows are the instances cluster-bfs distributes.
var clusterRows = []Inst{{"nsdp", 8}, {"over", 5}, {"rw", 15}, {"asat", 8}}

// clusterCycle is one pass of cluster-bfs: per instance a distributed
// exhaustive deadlock check and one of a reachable bad set, each under a
// fresh net name so every request is a cold distributed run.
func clusterCycle(r *rand.Rand, seed uint64, cycle int) []Item {
	var items []Item
	for _, in := range clusterRows {
		reach, _ := badPools(in)
		items = append(items,
			Item{Check: Check{Inst: in, Engine: "exhaustive", Kind: "deadlock", Cluster: true}},
			Item{Check: Check{Inst: in, Engine: "exhaustive", Kind: "safety", Bad: draw(r, reach), Cluster: true}})
	}
	items = shuffle(r, items)
	for i := range items {
		items[i].Name = fmt.Sprintf("%s%d_%x_%d_%d", items[i].Family, items[i].Size, seed, cycle, i)
	}
	return items
}

// serveSmall are the rows the service mix runs non-default engines on.
var serveSmall = []Inst{{"nsdp", 4}, {"over", 2}, {"rw", 6}, {"asat", 2}}

// serveDeck is one deck of the service mix: the share of each request
// kind is exact per deck and the deck is shuffled per seed. Safety
// checks cover every engine with a reachable and an unreachable bad set.
func serveDeck(r *rand.Rand) []Item {
	var items []Item
	add := func(n int, c Check) {
		for i := 0; i < n; i++ {
			items = append(items, Item{Check: c})
		}
	}
	// Default-engine GPO deadlock checks on small Table 1 rows and the
	// figure nets: most of the traffic.
	gpoRows := []Inst{
		{"nsdp", 2}, {"nsdp", 4}, {"nsdp", 6}, {"asat", 2}, {"asat", 4}, {"asat", 8},
		{"over", 2}, {"over", 3}, {"over", 4}, {"over", 5},
		{"rw", 6}, {"rw", 9}, {"rw", 12}, {"rw", 15},
	}
	gpoRows = append(gpoRows, figures...)
	for _, in := range gpoRows {
		add(12, Check{Inst: in, Engine: "gpo", Kind: "deadlock"})
	}
	// Explicit engines on small rows.
	for _, in := range serveSmall {
		for _, e := range []string{"exhaustive", "partial-order", "symbolic", "gpo-explicit", "unfolding"} {
			add(2, Check{Inst: in, Engine: e, Kind: "deadlock"})
		}
	}
	// Reduce variants.
	for _, in := range serveSmall {
		add(3, Check{Inst: in, Engine: "gpo", Kind: "deadlock", Reduce: true})
		add(2, Check{Inst: in, Engine: "exhaustive", Kind: "deadlock", Reduce: true})
	}
	// Async durable jobs, polled to completion.
	for _, in := range serveSmall {
		add(2, Check{Inst: in, Engine: "gpo", Kind: "deadlock", Async: true})
		add(1, Check{Inst: in, Engine: "exhaustive", Kind: "deadlock", Async: true})
	}
	// Safety checks on every engine, reachable and unreachable, on
	// nsdp(2): the unfolding engine does not finish a safety check on
	// any larger Table 1 row within seconds.
	in := Inst{"nsdp", 2}
	reach, unreach := badPools(in)
	for _, e := range []string{"exhaustive", "partial-order", "symbolic", "gpo", "gpo-explicit", "unfolding"} {
		items = append(items,
			Item{Check: Check{Inst: in, Engine: e, Kind: "safety", Bad: draw(r, reach)}},
			Item{Check: Check{Inst: in, Engine: e, Kind: "safety", Bad: draw(r, unreach)}})
	}
	return shuffle(r, items)
}

// serveRate is the fixed offered rate of serve-mix in requests per
// second: about 28 % of the capacity measured on the 2-CPU reference
// machine. At 40 % its latency doubled whenever the host was busy
// (see README.md).
const serveRate = 120.0

// serveRepeat is the share of serve-mix requests that repeat an earlier
// request verbatim (same net name), so a measured share hits the cache.
// A repeat re-asks one of the last serveRecent answered requests; a
// request that kills gpod at seed (see crashes) gets no answer and is
// not re-asked, so its share stays exactly what the deck deals.
const (
	serveRepeat = 0.3
	serveRecent = 64
)

// serveSchedule is the open-loop schedule of serve-mix over d: Poisson
// arrivals at serveRate, kinds dealt from shuffled decks, every fresh
// request under a new net name and a share of verbatim repeats.
func serveSchedule(seed uint64, d time.Duration, answers map[string]Answer) []Item {
	r := newRand(seed, "serve-mix")
	var out, deck []Item
	var recent []Item // recent answered synchronous requests, candidates for repeats
	t := 0.0
	for k := 0; ; k++ {
		t += -math.Log(1-r.Float64()) / serveRate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		var it Item
		if len(recent) > 0 && r.Float64() < serveRepeat {
			it = recent[r.IntN(len(recent))]
		} else {
			if len(deck) == 0 {
				deck = serveDeck(r)
			}
			it, deck = deck[0], deck[1:]
			it.Name = fmt.Sprintf("%s%d_%x_%d", it.Family, it.Size, seed, k)
			if !it.Async && !crashes(it.Check, answers) {
				if recent = append(recent, it); len(recent) > serveRecent {
					recent = recent[1:]
				}
			}
		}
		it.Due = due
		out = append(out, it)
	}
}
