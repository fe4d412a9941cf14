package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs/trace"
)

// endToEnd lists the metrics BENCHMARK.json gates, printed on every
// workload by an untraced run. Latency is printed but not gated: on the
// shared 2-CPU host, serve-mix latency spread 35–44 % across ten seeds
// (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"checks_per_s", "1/s"},
	{"cpu_ms_per_check", "ms"},
	{"peak_rss_mb", "MB"},
}

// layers are the modules a traced run attributes self time to, in the
// order verify calls them.
var layers = []string{"models", "petri", "pnio", "reduce", "core", "reach", "stubborn", "symbolic", "unfold", "server", "cluster", "driver"}

// perLayer lists the metrics a traced run prints on every workload; a
// metric whose layer the workload does not exercise reads 0.
var perLayer = func() []struct{ name, unit string } {
	ms := []struct{ name, unit string }{
		{"models.build_us", "us"}, {"petri.monitor_us", "us"}, {"pnio.parse_us", "us"},
		{"reduce.run_ms", "ms"}, {"reduce.trans_removed_frac", "ratio"},
		{"core.setup_us", "us"}, {"core.explore_us", "us"}, {"core.ns_per_state", "ns"},
		{"core.allocs_per_state", "count"}, {"core.bytes_per_state", "B"},
		{"zdd.unique_hit_ratio", "ratio"}, {"zdd.memo_hit_ratio", "ratio"},
		{"zdd.probes_per_lookup", "count"}, {"zdd.peak_nodes", "count"},
		{"family.explore_us", "us"}, {"family.ops", "count"},
		{"reach.ns_per_state", "ns"}, {"reach.bytes_per_state", "B"}, {"reach.allocs_per_state", "count"},
		{"reach.parallel_speedup", "ratio"}, {"reach.shard_contention", "count"},
		{"stubborn.ns_per_state", "ns"}, {"stubborn.bytes_per_state", "B"}, {"stubborn.proviso_expansions", "count"},
		{"symbolic.ms_per_iteration", "ms"}, {"bdd.peak_nodes", "count"}, {"bdd.cache_hit_ratio", "ratio"},
		{"unfold.ns_per_event", "ns"}, {"unfold.cutoff_ratio", "ratio"}, {"unfold.find_deadlock_ms", "ms"},
		{"server.queue_wait_p50_ms", "ms"}, {"server.queue_wait_p99_ms", "ms"}, {"server.run_wall_p50_ms", "ms"},
		{"server.http_overhead_p50_ms", "ms"}, {"server.cache_hit_ratio", "ratio"}, {"server.daemon_exits", "count"},
		{"server.resent_alone", "count"},
		{"jobs.resumed", "count"}, {"ckpt.saves", "count"}, {"ckpt.bytes_per_save", "B"},
		{"cluster.frontier_bytes_per_state", "B"}, {"cluster.batches_per_level", "count"},
		{"cluster.steals", "count"}, {"cluster.slowdown_vs_seq", "ratio"},
		{"loadgen.late_p99_ms", "ms"}, {"obs.trace_overhead_frac", "ratio"},
	}
	for _, l := range layers {
		ms = append(ms, struct{ name, unit string }{l + ".self_frac", "ratio"})
	}
	return ms
}()

// metric is one measured value with its sample count and, for ratios,
// its base.
type metric struct {
	value float64
	unit  string
	n     int
	note  string
}

// Result is everything one run reports.
type Result struct {
	workload  string
	attempted int
	failed    int
	incorrect []string       // verdict or state-count mismatches
	failures  map[string]int // failed checks by class
	unknown   []string       // failures outside the seed's known defect
	metrics   map[string]metric
}

func newResult(workload string) *Result {
	return &Result{workload: workload, failures: map[string]int{}, metrics: map[string]metric{}}
}

func (r *Result) set(name string, v float64, unit string, n int, note string) {
	r.metrics[name] = metric{value: v, unit: unit, n: n, note: note}
}

// record counts one check's outcome. err is nil for a passed check.
// knownDefect says whether a failure matches the seed's known defect:
// an invalid witness from a monitor-engine safety check with a
// reachable bad set, or a request lost to the daemon exit such a check
// causes.
func (r *Result) record(err error, knownDefect bool) {
	r.attempted++
	if err == nil {
		return
	}
	class := "error"
	if ce, ok := err.(*checkError); ok {
		class = ce.class
	}
	if class == failVerdict || class == failStates {
		r.incorrect = append(r.incorrect, err.Error())
	}
	r.failed++
	r.failures[class]++
	if !knownDefect && len(r.unknown) < 20 {
		r.unknown = append(r.unknown, err.Error())
	}
}

// correct holds when every verdict and state count matched its known
// answer and every failed check is of the seed's known defect.
func (r *Result) correct() bool { return len(r.incorrect) == 0 && len(r.unknown) == 0 }

// print writes the human-readable report, then the result object as the
// last line of standard output.
func (r *Result) print(traced bool) {
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("workload %s: attempted %d, failed %d, correct %v\n", r.workload, r.attempted, r.failed, r.correct())
	for class, n := range r.failures {
		fmt.Printf("  failed %-9s %d\n", class, n)
	}
	for _, s := range r.incorrect {
		fmt.Printf("  INCORRECT %s\n", s)
	}
	for _, s := range r.unknown {
		fmt.Printf("  UNEXPECTED %s\n", s)
	}
	for _, k := range names {
		m := r.metrics[k]
		fmt.Printf("  %-34s %14s %-6s n=%-7d %s\n", k, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.n, m.note)
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	out := map[string]any{}
	for _, m := range list {
		v := r.metrics[m.name]
		out[m.name] = map[string]any{"value": v.value, "unit": m.unit}
	}
	b, err := json.Marshal(map[string]any{
		"correct": r.correct(), "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// quantile is the nearest-rank q-quantile of sorted samples, and ok only
// when at least ten samples lie beyond it.
func quantile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], n-1-i >= 10
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencies reports p50/p90/p99 of a sample set under prefix, skipping
// any percentile with fewer than ten samples beyond it.
func (r *Result) latencies(prefix string, ms []float64) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		if v, ok := quantile(s, q.q); ok {
			r.set(prefix+"_"+q.name+"_ms", v, "ms", len(s), "")
		}
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads a process's VmHWM (peak resident set) in MB.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSelf is the driver process's user plus system CPU time so far.
func cpuSelf() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU is a live process's user plus system CPU time, read from
// /proc/<pid>/stat in clock ticks of 10 ms; 0 once the process is gone.
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name start at field 3.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

// resetPeakRSS resets a process's VmHWM to its current RSS (Linux
// clear_refs value 5), starting a new measurement window.
func resetPeakRSS(pid string) {
	_ = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0) // without it, windows report the run's peak so far
}

// spanRec is one closed span of a traced run.
type spanRec struct {
	name       string
	start, end time.Duration
	parent     int    // index into spans, -1 for a root
	track      string // "" = recorded live on the driver track
}

// spans records the driver's spans around layer calls. Each span also
// goes to the trace recorder as a phase bracket, so gpotrace reads the
// dump; self time is computed from the records here.
type spans struct {
	tr    *trace.Tracer
	tk    *trace.Track
	base  time.Time
	recs  []spanRec
	stack []int
}

func newSpans(workload string, seed uint64) *spans {
	tr := trace.New(trace.Options{Cap: 1 << 20})
	tr.SetMeta("workload", workload)
	tr.SetMeta("seed", strconv.FormatUint(seed, 10))
	tr.SetMeta("recorder", "perfbench driver spans")
	return &spans{tr: tr, tk: tr.NewTrack("driver"), base: time.Now()}
}

func (s *spans) begin(name string) {
	parent := -1
	if len(s.stack) > 0 {
		parent = s.stack[len(s.stack)-1]
	}
	s.recs = append(s.recs, spanRec{name: name, start: time.Since(s.base), parent: parent})
	s.stack = append(s.stack, len(s.recs)-1)
	s.tk.Begin(s.tr.Intern(name))
}

func (s *spans) end() time.Duration {
	i := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.recs[i].end = time.Since(s.base)
	s.tk.End(s.tr.Intern(s.recs[i].name))
	return s.recs[i].end - s.recs[i].start
}

// add records a closed span after the fact on the named track: a
// request timed by a concurrent sender, or the access log's
// queue-wait/run split of it. It returns the span's index.
func (s *spans) add(track, name string, start, end time.Duration, parent int) int {
	s.recs = append(s.recs, spanRec{name: name, start: start, end: end, parent: parent, track: track})
	return len(s.recs) - 1
}

// layerOf maps a span name to its layer: the part before the first dot,
// with the driver's own spans ("check") attributed to "driver".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return "driver"
}

// selfFracs sets <layer>.self_frac: each layer's self time (its spans'
// time minus the part their children cover) as a share of the root
// spans' total.
func (s *spans) selfFracs(r *Result) {
	child := make([]time.Duration, len(s.recs))
	var total time.Duration
	for _, rec := range s.recs {
		if rec.parent >= 0 {
			child[rec.parent] += rec.end - rec.start
		} else {
			total += rec.end - rec.start
		}
	}
	self := map[string]time.Duration{}
	for i, rec := range s.recs {
		self[layerOf(rec.name)] += rec.end - rec.start - child[i]
	}
	for _, l := range layers {
		r.set(l+".self_frac", frac(float64(self[l]), float64(total)), "ratio", 0,
			fmt.Sprintf("self %.1f ms of %.1f ms root span time", msOf(self[l]), msOf(total)))
	}
}

// write dumps the spans as a trace file gpotrace reads. Spans added
// after the fact go to their own tracks.
func (s *spans) write(path string) error {
	d := s.tr.Dump()
	late := map[string][]trace.Event{}
	var tracks []string
	for _, rec := range s.recs {
		if rec.track == "" {
			continue
		}
		if _, ok := late[rec.track]; !ok {
			tracks = append(tracks, rec.track)
		}
		id := internDump(d, rec.name)
		late[rec.track] = append(late[rec.track],
			trace.Event{TS: int64(rec.start), Kind: trace.KindPhaseBegin, Arg0: id},
			trace.Event{TS: int64(rec.end), Kind: trace.KindPhaseEnd, Arg0: id})
	}
	for _, name := range tracks {
		evs := late[name]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
		d.Tracks = append(d.Tracks, trace.DumpTrack{Name: name, Events: evs})
	}
	return trace.WriteFile(path, d)
}

func internDump(d *trace.Dump, name string) int64 {
	for i, s := range d.Strings {
		if s == name {
			return int64(i)
		}
	}
	if len(d.Strings) == 0 {
		d.Strings = append(d.Strings, "")
	}
	d.Strings = append(d.Strings, name)
	return int64(len(d.Strings) - 1)
}

func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
