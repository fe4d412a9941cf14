package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/family"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/petri"
	"repro/internal/reach"
	"repro/internal/structural/reduce"
	"repro/internal/stubborn"
	"repro/internal/symbolic"
	"repro/internal/unfold"
	"repro/internal/verify"
	"repro/internal/zdd"
)

// inProc is a closed-loop in-process workload: one caller runs cycles
// of checks back to back. Its set-up runs the warm-up checks, or when
// there are none the first cycle's.
type inProc struct {
	name   string
	cycle  func(r *rand.Rand) []Item
	warmup []Check
	// collect runs a garbage collection, untimed, before every check.
	// explicit-baselines checks allocate up to ~100 MB each; starting
	// each from a collected heap keeps the per-cycle peak RSS from
	// depending on the seeded order of the checks.
	collect bool
}

// gpoTable1's warm-up is one untimed pass over its first cycle.
func gpoTable1() inProc { return inProc{name: "gpo-table1", cycle: gpoTable1Cycle} }

func explicitBaselines() inProc {
	workers := runtime.NumCPU()
	return inProc{
		name:    "explicit-baselines",
		cycle:   func(r *rand.Rand) []Item { return explicitCycle(r, workers) },
		collect: true,
		warmup: []Check{
			{Inst: Inst{"nsdp", 6}, Engine: "exhaustive", Kind: "deadlock"},
			{Inst: Inst{"nsdp", 6}, Engine: "exhaustive", Kind: "deadlock", Workers: workers},
			{Inst: Inst{"nsdp", 6}, Engine: "partial-order", Kind: "deadlock"},
			{Inst: Inst{"nsdp", 4}, Engine: "symbolic", Kind: "deadlock"},
			{Inst: Inst{"nsdp", 6}, Engine: "unfolding", Kind: "deadlock"},
			{Inst: Inst{"nsdp", 6}, Engine: "exhaustive", Kind: "deadlock", Reduce: true},
		},
	}
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

// setup builds every net the workload's first cycle uses and runs the
// warm-up checks (untimed; in process there is no cache they could
// pre-fill).
func (w inProc) setup(seed uint64) (time.Duration, error) {
	start := time.Now()
	first := w.cycle(newRand(seed, w.name))
	warmup := w.warmup
	for _, it := range first {
		if _, err := it.Build(); err != nil {
			return 0, err
		}
		if w.warmup == nil {
			warmup = append(warmup, it.Check)
		}
	}
	for _, c := range warmup {
		if _, _, err := buildAndVerify(c); err != nil {
			return 0, fmt.Errorf("warm-up %s: %w", c.Label(), err)
		}
	}
	return time.Since(start), nil
}

// minSamples is the fewest checks a closed-loop run measures, so that
// its median has ten samples beyond it.
const minSamples = 20

// run measures whole cycles for at least d and minSamples checks: a
// cycle holds every check kind once, so stopping at a cycle boundary
// keeps the mix the same in every run.
func (w inProc) run(seed uint64, d time.Duration, answers map[string]Answer) (*Result, error) {
	res := newResult(w.name)
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t, err := w.setup(seed)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.Seconds())
	}
	res.set("setup_s", median(setups), "s", len(setups), "median of set-ups")

	r := newRand(seed, w.name)
	var lat []float64
	perKind := map[string][]float64{}
	var peaks []float64
	cpu0 := cpuSelf()
	start := time.Now()
	for res.attempted < minSamples || time.Since(start) < d {
		resetPeakRSS("self")
		for _, it := range w.cycle(r) {
			if w.collect {
				runtime.GC()
			}
			t0 := time.Now()
			n, rep, err := buildAndVerify(it.Check)
			el := time.Since(t0)
			if err == nil {
				err = outcome(it.Check, n, rep.Deadlock, rep.States, rep.Aborted, rep.Witness.Places(), answers)
			}
			res.record(err, knownDefect(it.Check, err, answers))
			lat = append(lat, msOf(el))
			perKind[it.Label()] = append(perKind[it.Label()], msOf(el))
		}
		peaks = append(peaks, peakRSSMB("self"))
	}
	wall := time.Since(start)
	cpu := cpuSelf() - cpu0
	res.set("checks_per_s", float64(res.attempted)/wall.Seconds(), "1/s", res.attempted,
		fmt.Sprintf("over %.2f s of whole cycles", wall.Seconds()))
	res.set("cpu_ms_per_check", msOf(cpu)/float64(res.attempted), "ms", res.attempted,
		fmt.Sprintf("driver CPU %.2f s over %d checks", cpu.Seconds(), res.attempted))
	res.latencies("check", lat)
	res.set("failed_frac", frac(float64(res.failed), float64(res.attempted)), "ratio", res.attempted, "failed / attempted")
	res.set("peak_rss_mb", median(peaks), "MB", len(peaks), "median over cycles of the driver's VmHWM, reset per cycle")
	printKinds(perKind)
	return res, nil
}

// buildAndVerify is one timed in-process check: net construction, then
// the verify façade.
func buildAndVerify(c Check) (*petri.Net, *verify.Report, error) {
	n, err := models.ByName(c.Family, c.Size)
	if err != nil {
		return nil, nil, err
	}
	opts, err := verifyOptions(c)
	if err != nil {
		return nil, nil, err
	}
	if c.Kind == "safety" {
		bad, err := placesOf(n, c.Bad)
		if err != nil {
			return nil, nil, err
		}
		rep, err := verify.CheckSafety(n, bad, opts)
		return n, rep, err
	}
	rep, err := verify.CheckDeadlock(n, opts)
	return n, rep, err
}

// outcome judges one check against the known-answer table.
func outcome(c Check, n *petri.Net, verdict bool, states int, aborted bool, witness []petri.Place, answers map[string]Answer) error {
	a, ok := answers[c.AnswerKey()]
	if !ok {
		return fmt.Errorf("%s: no known answer", c.AnswerKey())
	}
	if aborted {
		return failf(failStatus, "%s: aborted", c.AnswerKey())
	}
	if err := judge(c, a, verdict, states); err != nil {
		return err
	}
	return checkWitness(n, c, verdict, witness)
}

// knownDefect reports whether err is the seed's known defect: a
// monitor engine's witness of a reachable bad set, which is a marking
// of the monitored net rather than of the input net.
func knownDefect(c Check, err error, answers map[string]Answer) bool {
	ce, ok := err.(*checkError)
	return ok && ce.class == failWitness && c.Kind == "safety" && monitored(c.Engine) && answers[c.AnswerKey()].Verdict
}

// printKinds prints the median time of every check kind, slowest first.
func printKinds(perKind map[string][]float64) {
	type row struct {
		k   string
		med float64
		n   int
	}
	var rows []row
	for k, v := range perKind {
		rows = append(rows, row{k, median(v), len(v)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].med > rows[j].med })
	for _, r := range rows {
		fmt.Printf("  kind %-44s p50 %10.3f ms  n=%d\n", r.k, r.med, r.n)
	}
}

// layerStats accumulates the per-layer numbers of a traced run.
type layerStats struct {
	sum   map[string]float64 // summed quantities, by name
	count map[string]int     // sample counts, by name
	max   map[string]float64
}

func newLayerStats() *layerStats {
	return &layerStats{sum: map[string]float64{}, count: map[string]int{}, max: map[string]float64{}}
}

func (l *layerStats) add(name string, v float64) { l.sum[name] += v; l.count[name]++ }

func (l *layerStats) peak(name string, v float64) {
	if v > l.max[name] {
		l.max[name] = v
	}
}

func (l *layerStats) mean(name string) float64 { return frac(l.sum[name], float64(l.count[name])) }

// memDelta measures allocations around an engine call. ReadMemStats
// stops the world, so only traced runs call it.
type memDelta struct{ mallocs, bytes uint64 }

func memNow() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{ms.Mallocs, ms.TotalAlloc}
}

// engineCall runs f inside a span and records its wall time, allocation
// counts and bytes under prefix.
func engineCall(sp *spans, ls *layerStats, span, prefix string, f func() error) error {
	m0 := memNow()
	sp.begin(span)
	t0 := time.Now()
	err := f()
	el := time.Since(t0)
	sp.end()
	m1 := memNow()
	ls.add(prefix+".ns", float64(el))
	ls.add(prefix+".allocs", float64(m1.mallocs-m0.mallocs))
	ls.add(prefix+".bytes", float64(m1.bytes-m0.bytes))
	return err
}

// tracedCheck runs a check by calling the layers directly, in the order
// verify calls them, with a span around each call and a fresh metrics
// registry handed to the engine. It returns what verify would.
func tracedCheck(sp *spans, ls *layerStats, c Check) (n *petri.Net, verdict bool, states int, witness petri.Marking, err error) {
	sp.begin("check")
	defer sp.end()
	reg := obs.New()
	defer harvest(reg, ls, c)

	sp.begin("models.ByName")
	t0 := time.Now()
	n, err = models.ByName(c.Family, c.Size)
	ls.add("models.build_ns", float64(time.Since(t0)))
	sp.end()
	if err != nil {
		return
	}
	net := n
	var cert *reduce.Certificate
	if c.Reduce {
		if c.Kind != "deadlock" {
			return n, false, 0, nil, fmt.Errorf("traced run: reduced safety checks are not issued in process")
		}
		sp.begin("reduce.Run")
		t0 := time.Now()
		cert, err = reduce.Run(n, reduce.Options{Metrics: reg})
		ls.add("reduce.run_ns", float64(time.Since(t0)))
		sp.end()
		if err != nil {
			return
		}
		ls.add("reduce.trans_removed", float64(cert.TransRemoved()))
		ls.add("reduce.trans_in", float64(n.NumTrans()))
		net = cert.Net()
	}
	var bad []petri.Place
	trap := petri.Place(-1)
	if c.Kind == "safety" {
		if bad, err = placesOf(net, c.Bad); err != nil {
			return
		}
		if monitored(c.Engine) {
			sp.begin("petri.WithSafetyMonitor")
			t0 := time.Now()
			net, trap, err = petri.WithSafetyMonitor(net, bad)
			ls.add("petri.monitor_ns", float64(time.Since(t0)))
			sp.end()
			if err != nil {
				return
			}
		}
	}
	hasTrap := func(m petri.Marking) bool { return m.Has(trap) }
	switch c.Engine {
	case "exhaustive":
		o := reach.Options{Workers: c.Workers, Metrics: reg}
		if bad != nil {
			o.Bad = func(m petri.Marking) bool { return covers(m, bad) }
		}
		var res *reach.Result
		prefix := "reach"
		if c.Workers > 0 {
			prefix = "reach.par"
		}
		err = engineCall(sp, ls, "reach.Explore", prefix, func() (e error) { res, e = reach.Explore(net, o); return })
		if err != nil {
			return
		}
		ls.add(prefix+".states", float64(res.States))
		states = res.States
		if bad != nil {
			verdict = res.BadFound
			if len(res.BadStates) > 0 {
				witness = res.BadStates[0]
			}
		} else {
			verdict = res.Deadlock
			if len(res.Deadlocks) > 0 {
				witness = res.Deadlocks[0]
			}
		}
	case "partial-order":
		var res *stubborn.Result
		err = engineCall(sp, ls, "stubborn.Explore", "stubborn", func() (e error) {
			res, e = stubborn.Explore(net, stubborn.Options{Proviso: c.Proviso, Metrics: reg})
			return
		})
		if err != nil {
			return
		}
		ls.add("stubborn.states", float64(res.States))
		states = res.States
		for _, m := range res.Deadlocks {
			if trap < 0 || m.Has(trap) {
				verdict, witness = true, m
				break
			}
		}
	case "symbolic":
		var res *symbolic.Result
		err = engineCall(sp, ls, "symbolic.Analyze", "symbolic", func() (e error) {
			res, e = symbolic.Analyze(net, symbolic.Options{Bad: bad, Metrics: reg})
			return
		})
		if err != nil {
			return
		}
		states = int(res.States)
		verdict, witness = res.Deadlock, res.Witness
		if bad != nil {
			verdict, witness = res.BadFound, res.BadWitness
		}
	case "gpo", "gpo-explicit":
		o := core.Options{Metrics: reg}
		if trap >= 0 {
			o.ExpandDead, o.TrapFilter, o.TrapPlace = true, true, trap
		}
		var res *core.Result
		if c.Engine == "gpo" {
			res, err = gpoCall(sp, ls, "core", net, zdd.NewAlgebra(net.NumTrans()), o)
		} else {
			res, err = gpoCall(sp, ls, "family", net, family.NewAlgebra(net.NumTrans()), o)
		}
		if err != nil {
			return
		}
		states, verdict = res.States, res.Deadlock
		if len(res.Witnesses) > 0 {
			witness = res.Witnesses[0]
		}
	case "unfolding":
		var px *unfold.Prefix
		err = engineCall(sp, ls, "unfold.Build", "unfold", func() (e error) {
			px, e = unfold.Build(net, unfold.Options{Metrics: reg})
			return
		})
		if err != nil {
			return
		}
		states = len(px.Events)
		sp.begin("unfold.FindDeadlock")
		t0 := time.Now()
		if trap >= 0 {
			witness, verdict = px.FindDeadlockWhere(hasTrap)
		} else {
			witness, verdict = px.FindDeadlock()
		}
		ls.add("unfold.find_ns", float64(time.Since(t0)))
		sp.end()
	default:
		err = fmt.Errorf("unknown engine %q", c.Engine)
		return
	}
	if cert != nil && witness != nil {
		witness = cert.ExpandMarking(witness)
	}
	return
}

// gpoCall is the GPO engine's two layer calls: NewEngine (the core's
// set-up) and Analyze (exploration over the family algebra).
func gpoCall[F any](sp *spans, ls *layerStats, prefix string, net *petri.Net, alg core.Algebra[F], o core.Options) (*core.Result, error) {
	sp.begin("core.NewEngine")
	t0 := time.Now()
	e, err := core.NewEngine[F](net, alg)
	ls.add("core.setup_ns", float64(time.Since(t0)))
	sp.end()
	if err != nil {
		return nil, err
	}
	var res *core.Result
	err = engineCall(sp, ls, "core.Analyze", prefix, func() (e2 error) { res, _, e2 = e.Analyze(o); return })
	if err != nil {
		return nil, err
	}
	ls.add(prefix+".states", float64(res.States))
	return res, nil
}

// harvest folds one check's engine registry into the run's layer stats.
func harvest(reg *obs.Registry, ls *layerStats, c Check) {
	s := reg.Snapshot()
	for k, v := range s.Counters {
		ls.sum["ctr."+k] += float64(v)
	}
	for _, k := range []string{"zdd.unique_hits", "zdd.unique_misses", "zdd.memo_hits", "zdd.memo_misses",
		"zdd.unique_probes", "zdd.memo_probes", "bdd.cache_hits", "bdd.cache_misses",
		"family.union_ops", "family.intersect_ops", "family.diff_ops", "family.onset_ops"} {
		ls.sum["g."+k] += float64(s.Gauges[k])
	}
	ls.peak("zdd.peak_nodes", float64(s.Gauges["zdd.peak_nodes"]))
	ls.peak("bdd.peak_nodes", float64(s.Gauges["symbolic.peak_nodes"]))
	if c.Engine == "partial-order" && c.Proviso {
		ls.count["stubborn.proviso_checks"]++
	}
	if c.Engine == "exhaustive" && c.Workers > 0 {
		ls.count["reach.par_checks"]++
	}
}

// tracedRun alternates untraced and traced cycles for at least d (the
// untraced ones give the tracing overhead) and reports the per-layer
// metrics of the traced ones.
func (w inProc) tracedRun(seed uint64, d time.Duration, answers map[string]Answer, dumpDir string) (*Result, error) {
	res := newResult(w.name)
	sp := newSpans(w.name, seed)
	ls := newLayerStats()
	r := newRand(seed, w.name)
	var plain, traced time.Duration
	var plainN, tracedN int
	// Pairs the Workers 0 and Workers nproc runs of each instance.
	seqWall, parWall := map[string]time.Duration{}, map[string]time.Duration{}
	start := time.Now()
	for cycles := 0; cycles < 2 || time.Since(start) < d; cycles++ {
		items := w.cycle(r)
		t0 := time.Now()
		if cycles%2 == 0 {
			for _, it := range items {
				if w.collect {
					runtime.GC()
				}
				n, rep, err := buildAndVerify(it.Check)
				if err == nil {
					err = outcome(it.Check, n, rep.Deadlock, rep.States, rep.Aborted, rep.Witness.Places(), answers)
				}
				res.record(err, knownDefect(it.Check, err, answers))
			}
			plain += time.Since(t0)
			plainN += len(items)
			continue
		}
		for _, it := range items {
			if w.collect {
				runtime.GC()
			}
			c0 := time.Now()
			n, verdict, states, witness, err := tracedCheck(sp, ls, it.Check)
			if it.Engine == "exhaustive" && !it.Reduce {
				if it.Workers > 0 {
					parWall[it.Inst.String()] += time.Since(c0)
				} else {
					seqWall[it.Inst.String()] += time.Since(c0)
				}
			}
			if err == nil {
				err = outcome(it.Check, n, verdict, states, false, witness.Places(), answers)
			}
			res.record(err, knownDefect(it.Check, err, answers))
		}
		traced += time.Since(t0)
		tracedN += len(items)
	}
	var seq, par time.Duration
	for k, v := range parWall {
		seq += seqWall[k]
		par += v
	}
	ls.sum["reach.seq_wall"], ls.sum["reach.par_wall"] = float64(seq), float64(par)
	overhead := frac(float64(traced)/float64(tracedN), float64(plain)/float64(plainN)) - 1
	res.set("obs.trace_overhead_frac", overhead, "ratio", tracedN,
		fmt.Sprintf("traced %.1f ms / %d checks vs untraced %.1f ms / %d checks", msOf(traced), tracedN, msOf(plain), plainN))
	inProcLayers(res, ls)
	sp.selfFracs(res)
	return res, writeDump(sp, dumpDir, w.name)
}

// inProcLayers turns a traced run's layer stats into per-layer metrics.
func inProcLayers(res *Result, ls *layerStats) {
	us := func(ns float64) float64 { return ns / 1e3 }
	setMean := func(metric, key, unit string, scale func(float64) float64) {
		if ls.count[key] > 0 {
			res.set(metric, scale(ls.mean(key)), unit, ls.count[key], "")
		}
	}
	setMean("models.build_us", "models.build_ns", "us", us)
	setMean("petri.monitor_us", "petri.monitor_ns", "us", us)
	setMean("reduce.run_ms", "reduce.run_ns", "ms", func(ns float64) float64 { return ns / 1e6 })
	if ls.sum["reduce.trans_in"] > 0 {
		res.set("reduce.trans_removed_frac", ls.sum["reduce.trans_removed"]/ls.sum["reduce.trans_in"], "ratio",
			ls.count["reduce.trans_in"], fmt.Sprintf("%.0f of %.0f transitions", ls.sum["reduce.trans_removed"], ls.sum["reduce.trans_in"]))
	}
	setMean("core.setup_us", "core.setup_ns", "us", us)
	setMean("core.explore_us", "core.ns", "us", us)
	setMean("family.explore_us", "family.ns", "us", us)
	perState := func(metric, prefix, q, unit string) {
		if st := ls.sum[prefix+".states"]; st > 0 {
			res.set(metric, ls.sum[prefix+"."+q]/st, unit, ls.count[prefix+"."+q],
				fmt.Sprintf("per state, over %.0f states", st))
		}
	}
	perState("core.ns_per_state", "core", "ns", "ns")
	perState("core.allocs_per_state", "core", "allocs", "count")
	perState("core.bytes_per_state", "core", "bytes", "B")
	perState("reach.ns_per_state", "reach", "ns", "ns")
	perState("reach.allocs_per_state", "reach", "allocs", "count")
	perState("reach.bytes_per_state", "reach", "bytes", "B")
	perState("stubborn.ns_per_state", "stubborn", "ns", "ns")
	perState("stubborn.bytes_per_state", "stubborn", "bytes", "B")
	ratio := func(metric, hit, miss string) {
		h, m := ls.sum["g."+hit], ls.sum["g."+miss]
		if h+m > 0 {
			res.set(metric, h/(h+m), "ratio", 0, fmt.Sprintf("%.0f hits of %.0f lookups", h, h+m))
		}
	}
	ratio("zdd.unique_hit_ratio", "zdd.unique_hits", "zdd.unique_misses")
	ratio("zdd.memo_hit_ratio", "zdd.memo_hits", "zdd.memo_misses")
	ratio("bdd.cache_hit_ratio", "bdd.cache_hits", "bdd.cache_misses")
	if look := ls.sum["g.zdd.unique_hits"] + ls.sum["g.zdd.unique_misses"] + ls.sum["g.zdd.memo_hits"] + ls.sum["g.zdd.memo_misses"]; look > 0 {
		probes := ls.sum["g.zdd.unique_probes"] + ls.sum["g.zdd.memo_probes"]
		res.set("zdd.probes_per_lookup", probes/look, "count", 0, fmt.Sprintf("%.0f probes over %.0f lookups", probes, look))
	}
	if v := ls.max["zdd.peak_nodes"]; v > 0 {
		res.set("zdd.peak_nodes", v, "count", 0, "largest over checks")
	}
	if v := ls.max["bdd.peak_nodes"]; v > 0 {
		res.set("bdd.peak_nodes", v, "count", 0, "largest over checks")
	}
	if n := ls.count["family.ns"]; n > 0 {
		ops := ls.sum["g.family.union_ops"] + ls.sum["g.family.intersect_ops"] + ls.sum["g.family.diff_ops"] + ls.sum["g.family.onset_ops"]
		res.set("family.ops", ops/float64(n), "count", n, "family operations per gpo-explicit check")
	}
	if ls.sum["reach.par_wall"] > 0 {
		res.set("reach.parallel_speedup", ls.sum["reach.seq_wall"]/ls.sum["reach.par_wall"], "ratio", ls.count["reach.par_checks"],
			fmt.Sprintf("wall at Workers 0 / wall at Workers %d on the same instances", runtime.NumCPU()))
	}
	if n := ls.count["reach.par_checks"]; n > 0 {
		res.set("reach.shard_contention", ls.sum["ctr.reach.shard_contention"]/float64(n), "count", n, "per parallel check")
	}
	if n := ls.count["stubborn.proviso_checks"]; n > 0 {
		res.set("stubborn.proviso_expansions", ls.sum["ctr.stubborn.proviso_expansions"]/float64(n), "count", n, "per proviso check")
	}
	if it := ls.sum["ctr.symbolic.iterations"]; it > 0 {
		res.set("symbolic.ms_per_iteration", ls.sum["symbolic.ns"]/1e6/it, "ms", ls.count["symbolic.ns"], fmt.Sprintf("over %.0f iterations", it))
	}
	if ev := ls.sum["ctr.unfold.events"]; ev > 0 {
		res.set("unfold.ns_per_event", ls.sum["unfold.ns"]/ev, "ns", ls.count["unfold.ns"], fmt.Sprintf("over %.0f events", ev))
		res.set("unfold.cutoff_ratio", ls.sum["ctr.unfold.cutoffs"]/ev, "ratio", ls.count["unfold.ns"],
			fmt.Sprintf("%.0f cut-offs of %.0f events", ls.sum["ctr.unfold.cutoffs"], ev))
	}
	setMean("unfold.find_deadlock_ms", "unfold.find_ns", "ms", func(ns float64) float64 { return ns / 1e6 })
}

func writeDump(sp *spans, dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := fmt.Sprintf("%s/%s-%s.trace.jsonl", dir, workload, sp.tr.Meta()["seed"])
	if err := sp.write(path); err != nil {
		return err
	}
	fmt.Printf("span dump: %s (read with gpotrace)\n", path)
	return nil
}
