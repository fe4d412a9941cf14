package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs/trace"
)

// Distributed-tracing support: every peer that runs a traced job keeps
// its node-side flight-recorder dump in a small in-memory store keyed
// by the run ID the coordinator propagated in startReq.TraceRun, and
// POST /cluster/v1/trace hands the dump back together with the peer's
// wall clock so the collector can estimate the clock offset from the
// RPC midpoint. The coordinator's own recorder (the "cluster" and
// "wire:*" tracks) lives in the server layer; CollectTraces gathers
// the per-peer slices it is merged with.

// traceStoreCap bounds how many finished runs each node retains.
const traceStoreCap = 8

// ackFrameBytes is the wire size of an empty ack frame (4-byte length
// prefix plus the type byte), stamped on ack-direction wire edges.
const ackFrameBytes = 5

// traceStore retains the node-side dumps of the last few traced runs,
// oldest evicted first.
type traceStore struct {
	mu    sync.Mutex
	order []string
	byRun map[string]*trace.Dump
}

func newTraceStore() *traceStore {
	return &traceStore{byRun: make(map[string]*trace.Dump)}
}

func (s *traceStore) put(run string, d *trace.Dump) {
	if run == "" || d == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byRun[run]; !ok {
		s.order = append(s.order, run)
		for len(s.order) > traceStoreCap {
			delete(s.byRun, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.byRun[run] = d
}

func (s *traceStore) get(run string) *trace.Dump {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.byRun[run]
}

func (s *traceStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byRun)
}

// traceReq is the JSON body of /cluster/v1/trace.
type traceReq struct {
	Run string `json:"run"`
}

// traceResp carries one peer's dump plus its wall clock at reply time,
// the raw material of the collector's offset estimate.
type traceResp struct {
	Found     bool        `json:"found"`
	NowUnixNS int64       `json:"now_unix_ns"`
	Dump      *trace.Dump `json:"dump,omitempty"`
}

// handleTrace serves this node's retained dump for one run.
func (nd *Node) handleTrace(w http.ResponseWriter, r *http.Request) {
	var req traceReq
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "cluster: bad trace body: %v", err)
		return
	}
	d := nd.traces.get(req.Run)
	resp := traceResp{Found: d != nil, NowUnixNS: time.Now().UnixNano(), Dump: d}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(&resp)
}

// CollectTraces fetches every peer's retained dump for run, estimating
// each peer's clock offset as (peer wall clock − RPC midpoint) and
// bounding it with the observed round trip. Collection is best-effort:
// unreachable peers and peers without a dump are simply absent from
// the result.
func (nd *Node) CollectTraces(ctx context.Context, run string) []trace.BundlePeer {
	body, err := json.Marshal(traceReq{Run: run})
	if err != nil {
		return nil
	}
	out := make([]*trace.BundlePeer, len(nd.peers))
	_ = nd.broadcast(func(peer int) error {
		t0 := time.Now()
		resp, cancel, err := nd.post(ctx, peer, "/cluster/v1/trace", "", 0, bytes.NewBuffer(body), "application/json")
		if err != nil {
			return nil // best-effort: skip unreachable peers
		}
		defer cancel()
		defer resp.Body.Close()
		var tr traceResp
		if err := json.NewDecoder(io.LimitReader(resp.Body, int64(nd.maxFrame))).Decode(&tr); err != nil {
			return nil
		}
		t1 := time.Now()
		nd.reg.Counter("cluster.trace_collects").Inc()
		if !tr.Found || tr.Dump == nil {
			return nil
		}
		mid := t0.UnixNano() + t1.Sub(t0).Nanoseconds()/2
		out[peer] = &trace.BundlePeer{
			Addr:     nd.peers[peer],
			OffsetNS: tr.NowUnixNS - mid,
			RTTNS:    t1.Sub(t0).Nanoseconds(),
			Dump:     tr.Dump,
		}
		return nil
	})
	var peers []trace.BundlePeer
	for _, p := range out {
		if p != nil {
			peers = append(peers, *p)
		}
	}
	return peers
}

// LocalTrace returns this node's retained dump for run (nil if none) —
// how a worker peer's own /v1/runs/{id}/trace endpoint serves its slice
// without a cluster round trip.
func (nd *Node) LocalTrace(run string) *trace.Dump {
	return nd.traces.get(run)
}

// Peers returns the cluster membership as base URLs (a copy).
func (nd *Node) Peers() []string {
	return append([]string(nil), nd.peers...)
}
