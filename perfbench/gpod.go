package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/petri"
)

// daemon is one gpod child process on a fixed loopback port. After an
// unexpected exit it is restarted on the same port by whichever client
// first notices; the exit is counted and the requests that were in
// flight on the dead process are resent one at a time (see exchange).
type daemon struct {
	bin  string
	addr string // host:port
	args []string
	log  *os.File

	// gate is held shared by every request in flight and exclusively by
	// a request resent after a daemon exit, so the resend runs alone.
	gate sync.RWMutex

	mu       sync.Mutex
	resent   int // requests resent alone after a daemon exit
	cmd      *exec.Cmd
	gen      int           // incremented at every boot
	done     chan struct{} // closed when the current process has exited
	exits    int           // unexpected exits
	inflight map[int]map[int]Item
	crashKey map[int]bool // per dead generation: was a known-defect request in flight
	metrics  []map[string]int64
	last     map[string]int64 // latest /metrics counters of the current generation
	// scrapes and scrapeTime count the traced run's /metrics reads.
	scrapes    int
	scrapeTime time.Duration
	// cpuExited is the CPU time of this daemon's exited processes, in ns.
	cpuExited atomic.Int64

	client *http.Client
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func newDaemon(bin, dir string, port, conns int, extra ...string) (*daemon, error) {
	addr := "127.0.0.1:" + strconv.Itoa(port)
	log, err := os.Create(filepath.Join(dir, "gpod-"+strconv.Itoa(port)+".log"))
	if err != nil {
		return nil, err
	}
	d := &daemon{
		bin:      bin,
		addr:     addr,
		args:     append([]string{"-addr", addr}, extra...),
		log:      log,
		inflight: map[int]map[int]Item{},
		crashKey: map[int]bool{},
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
	}
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// boot starts a process and waits until /healthz answers. The caller
// holds d.mu or owns d exclusively.
func (d *daemon) boot() error {
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = d.log, d.log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start gpod: %w", err)
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait() // the exit status is judged by whoever stopped or lost the process
		d.cpuExited.Add(int64(cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()))
		close(done)
	}()
	d.cmd, d.done = cmd, done
	d.gen++
	d.last = nil
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-done:
			return fmt.Errorf("gpod %s exited during start-up (see %s)", d.addr, d.log.Name())
		default:
		}
		resp, err := d.client.Get(d.url("/healthz"))
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	_ = cmd.Process.Kill() // never became healthy; the error below reports it
	<-done
	return fmt.Errorf("gpod %s not healthy after 20s", d.addr)
}

// generation returns the current process generation.
func (d *daemon) generation() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// begin and finish bracket a request on generation gen, so a crash can
// be attributed to the requests that were in flight.
func (d *daemon) begin(gen, id int, it Item) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.inflight[gen] == nil {
		d.inflight[gen] = map[int]Item{}
	}
	d.inflight[gen][id] = it
}

func (d *daemon) finish(gen, id int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.inflight[gen], id)
}

// recover is called after a transport error on generation gen. If that
// process has exited, the first caller counts the exit and boots a new
// one. It reports whether gen died and whether a request that triggers
// the seed's known defect was in flight on it.
func (d *daemon) recover(gen int, answers map[string]Answer) (died, known bool, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if gen < d.gen {
		return true, d.crashKey[gen], nil
	}
	select {
	case <-d.done:
	case <-time.After(2 * time.Second):
		return false, false, nil // still running: the error was not a crash
	}
	d.exits++
	for _, it := range d.inflight[gen] {
		if crashes(it.Check, answers) {
			d.crashKey[gen] = true
		}
	}
	if d.last != nil {
		d.metrics = append(d.metrics, d.last)
	}
	return true, d.crashKey[gen], d.boot()
}

func (d *daemon) countResend() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.resent++
}

// crashes reports whether a request triggers the seed's known defect in
// gpod: a monitor-engine safety check of a reachable bad set, whose
// witness the server names against the input net and panics.
func crashes(c Check, answers map[string]Answer) bool {
	return c.Kind == "safety" && monitored(c.Engine) && answers[c.AnswerKey()].Verdict
}

// peakRSS returns the current process's peak RSS since the last call
// and resets it, so each measurement window reports its own peak.
func (d *daemon) peakRSS() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	pid := strconv.Itoa(d.cmd.Process.Pid)
	v := peakRSSMB(pid)
	resetPeakRSS(pid)
	return v
}

// cpu is the CPU time of every process this daemon has run so far.
func (d *daemon) cpu() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	exited := d.cpuExited.Load()
	live := procCPU(d.cmd.Process.Pid)
	select {
	case <-d.done:
		return time.Duration(d.cpuExited.Load()) // the live process has exited and been counted
	default:
		return time.Duration(exited) + live
	}
}

// scrape reads the current process's /metrics counters and gauges.
func (d *daemon) scrape() (map[string]int64, error) {
	resp, err := d.client.Get(d.url("/metrics"))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		Gauges   map[string]int64 `json:"gauges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for k, v := range snap.Counters {
		out[k] = v
	}
	for k, v := range snap.Gauges {
		out[k] = v
	}
	return out, nil
}

// keepMetrics scrapes the current generation and keeps the result as
// its latest reading; totals() sums the last reading of every
// generation.
func (d *daemon) keepMetrics() {
	gen := d.generation()
	t0 := time.Now()
	m, err := d.scrape()
	el := time.Since(t0)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.scrapes++
	d.scrapeTime += el
	if err == nil && gen == d.gen {
		d.last = m
	}
}

func (d *daemon) totals() map[string]int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := map[string]int64{}
	for _, m := range append(append([]map[string]int64(nil), d.metrics...), d.last) {
		for k, v := range m {
			out[k] += v
		}
	}
	return out
}

// stop drains the process with SIGINT and waits for it to exit,
// killing it if the drain takes longer than 15 s.
func (d *daemon) stop() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cmd == nil {
		return nil
	}
	select {
	case <-d.done:
		return nil
	default:
	}
	if err := d.cmd.Process.Signal(syscall.SIGINT); err != nil {
		return err
	}
	select {
	case <-d.done:
		return nil
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill() // the drain hung; the error below reports it
		<-d.done
		return fmt.Errorf("gpod %s did not drain within 15s", d.addr)
	}
}

func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.log.Close()
}

// post sends a JSON body and decodes a JSON answer. A transport error
// is returned as is; a non-2xx status as a checkError.
func (d *daemon) post(path, reqID string, body any, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, d.url(path), bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	return d.do(req, out)
}

func (d *daemon) get(path string, out any) error {
	req, err := http.NewRequest(http.MethodGet, d.url(path), nil)
	if err != nil {
		return err
	}
	return d.do(req, out)
}

func (d *daemon) do(req *http.Request, out any) error {
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return failf(failStatus, "%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: %w", req.Method, req.URL.Path, err)
	}
	return nil
}

// refused reports whether a transport error means the request never
// reached a process (nothing listening), so it can be resent.
func refused(err error) bool { return errors.Is(err, syscall.ECONNREFUSED) }

// wireRequest is the gpod request body (internal/server.Request).
type wireRequest struct {
	Net       string   `json:"net"`
	Engine    string   `json:"engine,omitempty"`
	Check     string   `json:"check,omitempty"`
	Bad       []string `json:"bad,omitempty"`
	Workers   int      `json:"workers,omitempty"`
	Cluster   bool     `json:"cluster,omitempty"`
	Proviso   bool     `json:"proviso,omitempty"`
	Reduce    bool     `json:"reduce,omitempty"`
	TimeoutMS int64    `json:"timeout_ms,omitempty"`
}

// wireResponse is the part of the gpod response the driver checks.
type wireResponse struct {
	Status   string   `json:"status"`
	Cached   bool     `json:"cached"`
	Deadlock bool     `json:"deadlock"`
	Witness  []string `json:"witness"`
	States   int      `json:"states"`
}

// jobRecord is the part of a gpod job record the driver reads.
type jobRecord struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// accessEntry is the part of a gpod access-log line the driver reads.
type accessEntry struct {
	RequestID   string `json:"request_id"`
	Outcome     string `json:"outcome"`
	WallNS      int64  `json:"wall_ns"`
	QueueWaitNS int64  `json:"queue_wait_ns"`
}

func readAccessLog(path string) (map[string]accessEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]accessEntry{}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var e accessEntry
		if json.Unmarshal(line, &e) == nil && e.RequestID != "" {
			out[e.RequestID] = e
		}
	}
	return out, nil
}

func wireOf(it Item, text string) wireRequest {
	return wireRequest{
		Net: text, Engine: it.Engine, Check: it.Kind, Bad: it.Bad, Workers: it.Workers,
		Cluster: it.Cluster, Proviso: it.Proviso, Reduce: it.Reduce, TimeoutMS: 60000,
	}
}

// judgeResponse checks a gpod answer against the known answer and the
// witness, which gpod names by place.
func judgeResponse(it Item, resp *wireResponse, answers map[string]Answer) error {
	if resp.Status != "ok" {
		return failf(failStatus, "%s: status %q", it.AnswerKey(), resp.Status)
	}
	n, err := it.Build()
	if err != nil {
		return err
	}
	var w []petri.Place
	for _, name := range resp.Witness {
		p, ok := n.PlaceByName(name)
		if !ok {
			return failf(failWitness, "%s: witness names unknown place %q", it.AnswerKey(), name)
		}
		w = append(w, p)
	}
	return outcome(it.Check, n, resp.Deadlock, resp.States, false, w, answers)
}
