package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/pnio"
)

// service holds what a gpod workload needs: the gpod binary and a
// scratch directory inside the checkout for temp dirs.
type service struct {
	gpod    string
	tmpRoot string
	answers map[string]Answer
}

// outcomeRec is one finished request of a gpod workload.
type outcomeRec struct {
	it      Item
	id      string
	err     error
	known   bool
	cached  bool
	done    time.Time
	lat     time.Duration // from due (open loop) or send (closed loop) to verdict
	rtt     time.Duration // last HTTP round trip
	late    time.Duration // how late the generator sent it
	channel int
}

// exchange sends one check to d and waits for its verdict: a POST to
// /v1/verify, or for an async item a POST to /v1/jobs polled until the
// job ends. Requests refused while the daemon restarts are resent. A
// request lost to a daemon exit is resent once with no other request
// in flight: the request that made gpod exit makes it exit again and
// fails, while one that was only in flight beside it gets its answer.
// So which requests fail depends on the schedule alone, not on what
// happened to share the dead process.
func (s *service) exchange(d *daemon, id int, reqID string, it Item, text string) (rec outcomeRec) {
	rec.it, rec.id = it, reqID
	alone := false
	for {
		lock, unlock := d.gate.RLock, d.gate.RUnlock
		if alone {
			lock, unlock = d.gate.Lock, d.gate.Unlock
		}
		lock()
		gen := d.generation()
		d.begin(gen, id, it)
		t0 := time.Now()
		var resp wireResponse
		var err error
		if it.Async {
			err = s.job(d, reqID, it, text, &resp)
		} else {
			err = d.post("/v1/verify", reqID, wireOf(it, text), &resp)
		}
		rec.rtt = time.Since(t0)
		if _, isCheck := err.(*checkError); err != nil && !isCheck {
			died, known, rerr := d.recover(gen, s.answers)
			d.finish(gen, id)
			unlock()
			if rerr != nil {
				rec.err = rerr
				return rec
			}
			if died && refused(err) {
				continue
			}
			if died && !alone {
				alone = true
				d.countResend()
				continue
			}
			if died {
				rec.err, rec.known = failf(failLost, "%s: lost to a gpod exit: %v", it.AnswerKey(), err), known
			} else {
				rec.err = failf(failTransport, "%s: %v", it.AnswerKey(), err)
			}
			return rec
		}
		d.finish(gen, id)
		unlock()
		if err == nil {
			err = judgeResponse(it, &resp, s.answers)
		}
		rec.err, rec.cached = err, resp.Cached
		rec.known = knownDefect(it.Check, err, s.answers)
		return rec
	}
}

// jobTerminal are the job states that end polling.
var jobTerminal = map[string]bool{"done": true, "failed": true, "canceled": true}

// job submits an async job and polls it to its end.
func (s *service) job(d *daemon, reqID string, it Item, text string, out *wireResponse) error {
	var rec jobRecord
	if err := d.post("/v1/jobs", reqID, wireOf(it, text), &rec); err != nil {
		return err
	}
	for !jobTerminal[rec.State] {
		time.Sleep(2 * time.Millisecond)
		if err := d.get("/v1/jobs/"+rec.ID, &rec); err != nil {
			return err
		}
	}
	if rec.State != "done" {
		return failf(failStatus, "%s: job %s ended %s: %s", it.AnswerKey(), rec.ID, rec.State, rec.Error)
	}
	return json.Unmarshal(rec.Result, out)
}

// bootServe starts a gpod with default flags plus a temp jobs dir and
// an access log, and runs the warm-up: requests under net names no
// timed request uses, so the cache holds nothing a timed request hits.
func (s *service) bootServe(conns int) (*daemon, string, error) {
	dir, err := os.MkdirTemp(s.tmpRoot, "serve-")
	if err != nil {
		return nil, "", err
	}
	port, err := freePort()
	if err != nil {
		return nil, dir, err
	}
	d, err := newDaemon(s.gpod, dir, port, conns,
		"-jobs", filepath.Join(dir, "jobs"), "-access-log", filepath.Join(dir, "access.jsonl"))
	if err != nil {
		return nil, dir, err
	}
	if err := d.boot(); err != nil {
		d.close()
		return nil, dir, err
	}
	for i, c := range []Check{
		{Inst: Inst{"nsdp", 4}, Engine: "gpo", Kind: "deadlock"},
		{Inst: Inst{"rw", 6}, Engine: "exhaustive", Kind: "deadlock"},
		{Inst: Inst{"over", 2}, Engine: "symbolic", Kind: "deadlock"},
		{Inst: Inst{"asat", 2}, Engine: "gpo", Kind: "deadlock", Async: true},
	} {
		it := Item{Check: c, Name: fmt.Sprintf("warmup%d", i)}
		text, err := netText(c.Inst, it.Name)
		if err != nil {
			return d, dir, err
		}
		if rec := s.exchange(d, -1-i, "", it, text); rec.err != nil {
			return d, dir, fmt.Errorf("warm-up: %w", rec.err)
		}
	}
	return d, dir, nil
}

func (s *service) teardown(d *daemon, dir string) error {
	var err error
	if d != nil {
		err = d.stop()
		d.close()
	}
	if dir != "" {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}
	return err
}

// serveMix runs the open-loop service workload.
func (s *service) serveMix(seed uint64, dur time.Duration, traced bool, dumpDir string) (*Result, error) {
	res := newResult("serve-mix")
	conns := runtime.NumCPU()
	var setups []float64
	var d *daemon
	var dir string
	var sched []Item
	var texts []string
	for i := 0; i < 3; i++ {
		if d != nil {
			if err := s.teardown(d, dir); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		sched = serveSchedule(seed, dur, s.answers)
		texts = make([]string, len(sched))
		for k, it := range sched {
			var err error
			if texts[k], err = netText(it.Inst, it.Name); err != nil {
				return nil, err
			}
		}
		var err error
		d, dir, err = s.bootServe(conns)
		if err != nil {
			_ = s.teardown(d, dir) // the boot error is the one to report
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { _ = s.teardown(d, dir) }() // on early returns; the normal path checks the teardown below
	res.set("setup_s", median(setups), "s", len(setups), "median of set-ups")

	var sp *spans
	if traced {
		sp = newSpans("serve-mix", seed)
	}
	stopSampler := sampler(d, traced)
	cpu0 := d.cpu()
	recs := make([]outcomeRec, len(sched))
	next := make(chan int)
	start := time.Now()
	var wg sync.WaitGroup
	for ch := 0; ch < conns; ch++ {
		wg.Add(1)
		go func(ch int) {
			defer wg.Done()
			for k := range next {
				it := sched[k]
				due := start.Add(it.Due)
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				late := time.Since(due)
				rec := s.exchange(d, k, fmt.Sprintf("b%x-%d", seed, k), it, texts[k])
				rec.done = time.Now()
				rec.lat = rec.done.Sub(due)
				rec.late = late
				rec.channel = ch
				recs[k] = rec
			}
		}(ch)
	}
	for k := range sched {
		next <- k
	}
	close(next)
	wg.Wait()
	wall := time.Since(start)
	cpu := d.cpu() - cpu0
	peaks := stopSampler()

	var lat, cached, jobs, late []float64
	for _, r := range recs {
		res.record(r.err, r.known)
		late = append(late, msOf(r.late))
		switch {
		case r.err != nil:
		case r.it.Async:
			jobs = append(jobs, msOf(r.lat))
		case r.cached:
			cached = append(cached, msOf(r.lat))
		}
		lat = append(lat, msOf(r.lat))
	}
	res.set("checks_per_s", float64(res.attempted)/wall.Seconds(), "1/s", res.attempted,
		fmt.Sprintf("open loop at %.0f/s offered", serveRate))
	res.set("cpu_ms_per_check", msOf(cpu)/float64(res.attempted), "ms", res.attempted,
		fmt.Sprintf("gpod CPU %.2f s over %d requests", cpu.Seconds(), res.attempted))
	res.latencies("check", lat)
	res.latencies("cached", cached)
	res.latencies("job", jobs)
	res.set("failed_frac", frac(float64(res.failed), float64(res.attempted)), "ratio", res.attempted, "failed / attempted")
	res.set("peak_rss_mb", median(peaks), "MB", len(peaks), "median over 1 s windows of gpod's VmHWM, reset per window")
	res.set("server.daemon_exits", float64(d.exits), "count", 1, "unexpected gpod exits, each followed by a restart")
	res.set("server.resent_alone", float64(d.resent), "count", 1, "requests lost to a gpod exit and resent with nothing else in flight")
	sort.Float64s(late)
	if v, ok := quantile(late, 0.99); ok {
		res.set("loadgen.late_p99_ms", v, "ms", len(late), "send time minus due time")
	}
	if traced {
		if err := s.serveLayers(res, d, dir, recs, texts, sp, wall, dumpDir); err != nil {
			return nil, err
		}
	}
	err := s.teardown(d, dir)
	d, dir = nil, ""
	if err != nil {
		return nil, err
	}
	return res, nil
}

// sampler reads and resets the daemon's peak RSS once a second and, in
// traced runs, keeps its latest /metrics reading. The returned stop
// waits for the sampling goroutine to end and returns the per-second
// peaks.
func sampler(d *daemon, traced bool) (stop func() []float64) {
	quit := make(chan struct{})
	var peaks []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.peakRSS()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for i := 1; ; i++ {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			if traced && i%2 == 0 {
				d.keepMetrics()
			}
			if i%4 == 0 {
				peaks = append(peaks, d.peakRSS())
			}
		}
	}()
	return func() []float64 {
		close(quit)
		wg.Wait()
		if traced {
			d.keepMetrics()
		}
		return peaks
	}
}

// serveLayers computes the server, jobs and ckpt metrics of a traced
// serve-mix run from the access log, the client's timings and gpod's
// /metrics, and records the request spans with their queue-wait/run
// split.
func (s *service) serveLayers(res *Result, d *daemon, dir string, recs []outcomeRec, texts []string, sp *spans, wall time.Duration, dumpDir string) error {
	access, err := readAccessLog(filepath.Join(dir, "access.jsonl"))
	if err != nil {
		return err
	}
	var queue, run, overhead []float64
	var hits, verifies int
	base := sp.base
	for _, r := range recs {
		if r.err == nil && !r.it.Async {
			verifies++
			if r.cached {
				hits++
			}
		}
		e, ok := access[r.id]
		if !ok || r.it.Async || r.err != nil || r.done.Before(base) {
			continue
		}
		end := r.done.Sub(base)
		track := "conn" + strconv.Itoa(r.channel)
		root := sp.add(track, "server.request", end-r.rtt, end, -1)
		srvStart := end - time.Duration(e.WallNS)
		if e.Outcome == "ok" {
			queue = append(queue, float64(e.QueueWaitNS)/1e6)
			run = append(run, float64(e.WallNS-e.QueueWaitNS)/1e6)
			sp.add(track, "server.queue_wait", srvStart, srvStart+time.Duration(e.QueueWaitNS), root)
			sp.add(track, "server.run", srvStart+time.Duration(e.QueueWaitNS), end, root)
		}
		overhead = append(overhead, msOf(r.rtt)-float64(e.WallNS)/1e6)
	}
	sort.Float64s(queue)
	sort.Float64s(run)
	sort.Float64s(overhead)
	if v, ok := quantile(queue, 0.5); ok {
		res.set("server.queue_wait_p50_ms", v, "ms", len(queue), "access log queue_wait_ns, executed requests")
	}
	if v, ok := quantile(queue, 0.99); ok {
		res.set("server.queue_wait_p99_ms", v, "ms", len(queue), "access log queue_wait_ns, executed requests")
	}
	if v, ok := quantile(run, 0.5); ok {
		res.set("server.run_wall_p50_ms", v, "ms", len(run), "access log wall_ns minus queue_wait_ns")
	}
	if v, ok := quantile(overhead, 0.5); ok {
		res.set("server.http_overhead_p50_ms", v, "ms", len(overhead), "client round trip minus access log wall_ns")
	}
	res.set("server.cache_hit_ratio", frac(float64(hits), float64(verifies)), "ratio", verifies,
		fmt.Sprintf("%d cached of %d answered /v1/verify requests", hits, verifies))
	m := d.totals()
	res.set("jobs.resumed", float64(m["jobs.resumed"]), "count", 1, "summed over gpod processes")
	res.set("ckpt.saves", float64(m["ckpt.saves"]), "count", 1, "summed over gpod processes")
	if m["ckpt.saves"] > 0 {
		res.set("ckpt.bytes_per_save", float64(m["ckpt.bytes"])/float64(m["ckpt.saves"]), "B", int(m["ckpt.saves"]), "")
	}
	// The spans are built after the run from the client's timings and
	// the access log; the traced run's only cost to gpod is the /metrics
	// scrapes.
	res.set("obs.trace_overhead_frac", frac(float64(d.scrapeTime), float64(wall)), "ratio", d.scrapes,
		fmt.Sprintf("%d /metrics scrapes took %.1f ms of %.1f s", d.scrapes, msOf(d.scrapeTime), wall.Seconds()))
	// The client parses nothing; pnio.Parse on the generated texts is
	// timed here, outside the requests, as the parse share of a request.
	var parse []float64
	for k, t := range texts {
		if k%7 != 0 {
			continue
		}
		t0 := time.Now()
		if _, err := pnio.Parse(strings.NewReader(t)); err != nil {
			return err
		}
		parse = append(parse, float64(time.Since(t0))/1e3)
	}
	res.set("pnio.parse_us", median(parse), "us", len(parse), "median pnio.Parse of the generated texts")
	sp.selfFracs(res)
	return writeDump(sp, dumpDir, "serve-mix")
}

// clusterBFS runs the closed-loop distributed workload on three peers.
func (s *service) clusterBFS(seed uint64, dur time.Duration, traced bool, dumpDir string) (*Result, error) {
	res := newResult("cluster-bfs")
	var setups []float64
	var peers []*daemon
	var dir string
	teardown := func() error {
		var first error
		for _, p := range peers {
			if err := s.teardown(p, ""); err != nil && first == nil {
				first = err
			}
		}
		if err := os.RemoveAll(dir); err != nil && first == nil {
			first = err
		}
		peers = nil
		return first
	}
	defer func() { _ = teardown() }() // the explicit teardown below reports errors
	for i := 0; i < 3; i++ {
		if err := teardown(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		if peers, dir, err = s.bootCluster(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.set("setup_s", median(setups), "s", len(setups), "median of set-ups")
	before := make([]map[string]int64, len(peers))
	for i, p := range peers {
		before[i], _ = p.scrape()
	}
	var sp *spans
	if traced {
		sp = newSpans("cluster-bfs", seed)
	}
	r := newRand(seed, "cluster-bfs")
	coord := peers[0]
	var lat []float64
	var states float64
	perKind := map[string][]float64{}
	id := 0
	start := time.Now()
	var peaks []float64
	var cpu0 time.Duration
	for _, p := range peers {
		cpu0 += p.cpu()
	}
	for cycle := 0; id < minSamples || time.Since(start) < dur; cycle++ {
		for _, p := range peers {
			p.peakRSS()
		}
		for _, it := range clusterCycle(r, seed, cycle) {
			text, err := netText(it.Inst, it.Name)
			if err != nil {
				return nil, err
			}
			if sp != nil {
				sp.begin("cluster.request")
			}
			t0 := time.Now()
			rec := s.exchange(coord, id, fmt.Sprintf("c%x-%d", seed, id), it, text)
			el := time.Since(t0)
			if sp != nil {
				sp.end()
			}
			id++
			res.record(rec.err, rec.known)
			lat = append(lat, msOf(el))
			perKind[it.Label()] = append(perKind[it.Label()], msOf(el))
			if a := s.answers[it.AnswerKey()]; rec.err == nil {
				states += float64(a.States)
			}
		}
		peak := 0.0
		for _, p := range peers {
			peak = max(peak, p.peakRSS())
		}
		peaks = append(peaks, peak)
	}
	wall := time.Since(start)
	exits := 0
	cpu := -cpu0
	for _, p := range peers {
		exits += p.exits
		cpu += p.cpu()
	}
	res.set("checks_per_s", float64(res.attempted)/wall.Seconds(), "1/s", res.attempted,
		fmt.Sprintf("over %.2f s of whole cycles", wall.Seconds()))
	res.set("cpu_ms_per_check", msOf(cpu)/float64(res.attempted), "ms", res.attempted,
		fmt.Sprintf("CPU of the three peers %.2f s over %d checks", cpu.Seconds(), res.attempted))
	res.latencies("check", lat)
	res.set("failed_frac", frac(float64(res.failed), float64(res.attempted)), "ratio", res.attempted, "failed / attempted")
	res.set("peak_rss_mb", median(peaks), "MB", len(peaks), "median over cycles of the largest VmHWM of the peers, reset per cycle")
	res.set("server.daemon_exits", float64(exits), "count", 1, "unexpected gpod exits")
	resent := 0
	for _, p := range peers {
		resent += p.resent
	}
	res.set("server.resent_alone", float64(resent), "count", 1, "requests lost to a gpod exit and resent with nothing else in flight")
	printKinds(perKind)
	if traced {
		if err := s.clusterLayers(res, peers, before, perKind, states, sp, seed, dumpDir); err != nil {
			return nil, err
		}
	}
	if err := teardown(); err != nil {
		return nil, err
	}
	return res, nil
}

// bootCluster starts three gpod peers on loopback, runs one warm-up
// distributed check under a name no timed request uses, and returns
// them.
func (s *service) bootCluster() ([]*daemon, string, error) {
	dir, err := os.MkdirTemp(s.tmpRoot, "cluster-")
	if err != nil {
		return nil, "", err
	}
	var urls []string
	var ports []int
	for i := 0; i < 3; i++ {
		p, err := freePort()
		if err != nil {
			return nil, dir, err
		}
		ports = append(ports, p)
		urls = append(urls, fmt.Sprintf("http://127.0.0.1:%d", p))
	}
	var peers []*daemon
	for i, p := range ports {
		d, err := newDaemon(s.gpod, dir, p, 1, "-peers", strings.Join(urls, ","), "-self", urls[i])
		if err != nil {
			return peers, dir, err
		}
		peers = append(peers, d)
	}
	for _, d := range peers {
		if err := d.boot(); err != nil {
			return peers, dir, err
		}
	}
	it := Item{Check: Check{Inst: Inst{"nsdp", 4}, Engine: "exhaustive", Kind: "deadlock", Cluster: true}, Name: "warmup"}
	text, err := netText(it.Inst, it.Name)
	if err != nil {
		return peers, dir, err
	}
	if rec := s.exchange(peers[0], -1, "", it, text); rec.err != nil {
		return peers, dir, fmt.Errorf("cluster warm-up: %w", rec.err)
	}
	return peers, dir, nil
}

// clusterLayers computes the cluster metrics of a traced run: /metrics
// deltas summed over the peers, and the slowdown against the same
// checks run by sequential in-process reach.Explore.
func (s *service) clusterLayers(res *Result, peers []*daemon, before []map[string]int64, perKind map[string][]float64, states float64, sp *spans, seed uint64, dumpDir string) error {
	sum := map[string]int64{}
	for i, p := range peers {
		m, err := p.scrape()
		if err != nil {
			return err
		}
		for k, v := range m {
			sum[k] += v - before[i][k]
		}
	}
	bytesIn := float64(sum["cluster.frontier_bytes_out"])
	res.set("cluster.frontier_bytes_per_state", frac(bytesIn, states), "B", 0,
		fmt.Sprintf("%.0f frontier bytes sent over %.0f states", bytesIn, states))
	batches := float64(sum["cluster.expand_batches_in"] + sum["cluster.intern_batches_in"])
	levels := float64(sum["cluster.levels"])
	res.set("cluster.batches_per_level", frac(batches, levels), "count", 0,
		fmt.Sprintf("%.0f batches over %.0f peer-levels", batches, levels))
	checks := 0
	for _, v := range perKind {
		checks += len(v)
	}
	res.set("cluster.steals", frac(float64(sum["cluster.steals"]), float64(checks)), "count", checks, "steals per distributed check")

	// Sequential baseline: each check kind once, in process. Its spans
	// are kept out of the dump, which shows the workload's requests.
	var clusterMS, seqMS float64
	r := newRand(seed, "cluster-bfs")
	for _, it := range clusterCycle(r, seed, 0) {
		c := it.Check
		c.Cluster = false
		t0 := time.Now()
		if _, _, _, _, err := tracedCheck(newSpans("baseline", seed), newLayerStats(), c); err != nil {
			return err
		}
		seqMS += msOf(time.Since(t0))
		clusterMS += median(perKind[it.Label()])
	}
	res.set("cluster.slowdown_vs_seq", frac(clusterMS, seqMS), "ratio", len(perKind),
		fmt.Sprintf("distributed request %.0f ms / in-process reach.Explore %.0f ms over one cycle", clusterMS, seqMS))
	sp.selfFracs(res)
	return writeDump(sp, dumpDir, "cluster-bfs")
}
