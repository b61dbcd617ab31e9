package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"wdpt/internal/core"
	"wdpt/internal/cq"
	"wdpt/internal/obs"
	"wdpt/internal/report"
	"wdpt/internal/server"
	"wdpt/internal/sparql"
)

// maxProxyBytes bounds a /v1/query request document at the coordinator,
// mirroring the single-node request limit so the coordinator never accepts
// a body a member would reject.
const maxProxyBytes = 1 << 20

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Local is the coordinator's own full wdptd server: it serves every
	// non-query endpoint, evaluates queries locally when no peer can, and
	// replays any request the scatter path cannot answer with byte-identical
	// semantics. Required. The coordinator installs its metric families into
	// Local's /metrics exposition.
	Local *server.Server
	// Peers are the member endpoints (base URLs). At least one is required.
	// The deployment contract is that every member serves the same dataset
	// registry as Local (docs/CLUSTER.md).
	Peers []string
	// VirtualNodes is the ring's per-peer virtual-node count
	// (DefaultVirtualNodes when <= 0).
	VirtualNodes int
	// ProbeInterval is the background health-probe period
	// (DefaultProbeInterval when zero).
	ProbeInterval time.Duration
	// HTTPClient performs every member exchange: proxy forwards, scatter
	// legs and health probes. Nil uses a client bounded by memberTimeout
	// (never http.DefaultClient).
	HTTPClient *http.Client
}

// Coordinator is the cluster front end of a sharded wdptd fleet: an
// http.Handler that routes /v1/query by consistent-hash dataset ownership,
// scatter-gathers eligible union queries across healthy members, reports
// cluster state on /v1/cluster, and falls through to the local server for
// everything else.
//
// The response contract is byte-parity with a single node: a scattered
// union's merged body is byte-identical to what Local would serve for the
// same request, and any exchange the scatter path cannot complete cleanly
// is replayed through Local verbatim — so degraded responses come off the
// exact single-node guard ladder, not a reimplementation of it.
type Coordinator struct {
	local *server.Server
	ring  *Ring
	peers *Peers
	x     *exchanger
	st    *obs.Stats
	mux   *http.ServeMux
}

// NewCoordinator builds a coordinator over the given members. Call Start to
// launch health probing and Close to stop it.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Local == nil {
		return nil, fmt.Errorf("cluster: CoordinatorConfig.Local is required")
	}
	ring := NewRing(cfg.Peers, cfg.VirtualNodes)
	if len(ring.Peers()) == 0 {
		return nil, fmt.Errorf("cluster: a coordinator needs at least one peer endpoint")
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: memberTimeout}
	}
	x := &exchanger{
		hc:       hc,
		latency:  obs.NewHistVec(obs.HistClusterPeerLatency, nil, "peer", "kind", "outcome"),
		attempts: obs.NewCounterVec(obs.CVecClientEndpointAttempts, "endpoint"),
		failures: obs.NewCounterVec(obs.CVecClientEndpointFailures, "endpoint"),
	}
	c := &Coordinator{
		local: cfg.Local,
		ring:  ring,
		x:     x,
		st:    cfg.Local.Stats(),
		mux:   http.NewServeMux(),
	}
	c.peers = newPeers(ring.Peers(), cfg.ProbeInterval, c.st, x)
	c.mux.HandleFunc("POST /v1/query", c.handleQuery)
	c.mux.HandleFunc("GET /v1/cluster", c.handleStatus)
	c.mux.Handle("/", cfg.Local)
	cfg.Local.SetMetricsExtra(func(e *obs.Exposition) {
		e.HistogramVec(x.latency, "Latency of coordinator-to-peer exchanges.")
		e.CounterVec(x.attempts, "Exchanges with each peer endpoint.")
		e.CounterVec(x.failures, "Failed exchanges with each peer endpoint.")
	})
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Ring returns the coordinator's consistent-hash ring.
func (c *Coordinator) Ring() *Ring { return c.ring }

// Peers returns the coordinator's health-checked peer table.
func (c *Coordinator) Peers() *Peers { return c.peers }

// Start launches background health probing. Close joins it.
func (c *Coordinator) Start(ctx context.Context) { c.peers.Start(ctx) }

// Close stops health probing and waits for the prober to exit.
func (c *Coordinator) Close() { c.peers.Close() }

// Status is the GET /v1/cluster body.
type Status struct {
	// Role is always "coordinator" (members don't mount the endpoint).
	Role string `json:"role"`
	// VirtualNodes is the ring's per-peer virtual-node count.
	VirtualNodes int `json:"virtual_nodes"`
	// Peers is every member's health state, sorted by endpoint.
	Peers []PeerState `json:"peers"`
	// Datasets maps every registered dataset to its ring owner.
	Datasets map[string]string `json:"datasets"`
}

// handleStatus is GET /v1/cluster.
func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	list := c.local.Registry().List()
	names := make([]string, 0, len(list))
	for _, ds := range list {
		names = append(names, ds.Name)
	}
	server.WriteJSON(w, http.StatusOK, Status{
		Role:         "coordinator",
		VirtualNodes: c.ring.VirtualNodes(),
		Peers:        c.peers.States(),
		Datasets:     c.ring.Assignment(names),
	})
}

// handleQuery is the coordinator's POST /v1/query: scatter-gather for
// eligible union queries, consistent-hash proxying for everything else, and
// a verbatim local replay whenever neither path can answer with
// single-node-identical bytes.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxProxyBytes+1))
	if err != nil {
		server.WriteJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: server.ErrorPayload{
			Code: "bad_request", Message: "reading request body: " + err.Error(),
		}})
		return
	}
	var req server.Request
	if err := server.DecodeRequest(bytes.NewReader(body), &req); err != nil || len(body) > maxProxyBytes {
		// Malformed, oversized or followed by more than whitespace: the
		// local server produces the exact single-node error body.
		c.replayLocal(w, r, body)
		return
	}
	if req.Mode == "" {
		req.Mode = "enumerate"
	}
	if req.Engine == "" {
		req.Engine = "auto"
	}
	wantTrace := r.URL.Query().Get("trace") == "1"
	if trees, ok := c.scatterable(&req, wantTrace); ok {
		c.scatter(w, r, &req, trees, body)
		return
	}
	c.proxy(w, r, req.Dataset, body)
}

// scatterable decides scatter-gather eligibility and parses the member
// trees. A query scatters only when the merged response is provably
// byte-identical to the single-node one: >= 2 union members, a plain
// enumeration mode (enumerate or maximal — both merge member answer sets),
// no stats or trace payloads (they embed run-local data), no candidate
// mapping, no cross-member answer cap (MaxAnswers truncation is global by
// definition and cannot be enforced per leg), and >= 2 healthy peers to
// split across.
func (c *Coordinator) scatterable(req *server.Request, wantTrace bool) ([]*core.PatternTree, bool) {
	if req.Mode != "enumerate" && req.Mode != "maximal" {
		return nil, false
	}
	if req.Stats || wantTrace || len(req.Mapping) > 0 {
		return nil, false
	}
	if req.Budget != nil && req.Budget.MaxAnswers > 0 {
		return nil, false
	}
	trimmed := strings.TrimSpace(req.Query)
	if trimmed == "" || strings.HasPrefix(strings.ToUpper(trimmed), "ANS") {
		// ANS-format queries are single trees; nothing to split.
		return nil, false
	}
	u, err := sparql.ParseUnionQuery(trimmed)
	if err != nil {
		return nil, false // the local replay serves the exact parse error
	}
	trees := u.Trees()
	if len(trees) < 2 {
		return nil, false
	}
	if bound := c.local.WidthBound(); bound > 0 {
		for _, t := range trees {
			if !t.GloballyIn(cq.TW(bound)) {
				return nil, false // local replay serves the exact 422
			}
		}
	}
	if len(c.peers.Healthy()) < 2 {
		return nil, false
	}
	return trees, true
}

// legResult is one scatter leg's outcome. body is set only for a 200.
type legResult struct {
	endpoint string
	body     []byte
	err      error
}

// scatter fans the union members across healthy peers (round-robin over
// the sorted healthy list — deterministic assignment), gathers the per-tree
// answer sets, and merges them exactly as uwdpt.Union.Solve does, splicing
// the members' encoded answers into the body (mergeLegs).
// Each leg is a single-tree enumerate request carrying the original
// engine, parallelism, and budget (budgets are enforced per leg — the
// documented semantic difference, docs/CLUSTER.md). If ANY leg fails to
// come back clean — transport error, oversize body, non-200 status, or a
// body that is not a plain enumeration in the canonical layout (a degraded
// report among them) — the whole request is replayed through the local
// server, which serves the byte-identical single-node response including
// the full guard fallback ladder.
func (c *Coordinator) scatter(w http.ResponseWriter, r *http.Request, req *server.Request, trees []*core.PatternTree, body []byte) {
	ctx := r.Context()
	healthy := c.peers.Healthy()
	c.st.Inc(obs.CtrClusterScatters)
	legs := make([]legResult, len(trees))
	var wg sync.WaitGroup
	for i, t := range trees {
		ep := healthy[i%len(healthy)]
		legReq := server.Request{
			Dataset:     req.Dataset,
			Query:       sparql.Format(t),
			Mode:        "enumerate",
			Engine:      req.Engine,
			Parallelism: req.Parallelism,
			Budget:      req.Budget,
		}
		wg.Add(1)
		go func(i int, ep string, legReq server.Request) {
			defer wg.Done()
			legs[i] = c.scatterLeg(ctx, ep, legReq)
		}(i, ep, legReq)
	}
	wg.Wait()

	bodies := make([][]byte, 0, len(legs))
	clean := true
	for _, leg := range legs {
		if leg.err != nil && !errors.Is(leg.err, errMemberBodyTooLarge) {
			c.peers.MarkFailure(leg.endpoint, leg.err)
			clean = false
			continue
		}
		// Any HTTP answer means the node is alive — health tracks nodes,
		// not query outcomes (a 504 deadline is a healthy node saying no).
		c.peers.MarkSuccess(leg.endpoint)
		if leg.body == nil {
			clean = false
			continue
		}
		bodies = append(bodies, leg.body)
	}
	var merged []byte
	if clean {
		merged, clean = mergeLegs(report.Report{
			Mode:        req.Mode,
			Engine:      req.Engine,
			Parallelism: c.local.EffectiveParallelism(req.Parallelism),
		}, bodies)
	}
	if !clean {
		c.st.Inc(obs.CtrClusterScatterFallbacks)
		c.replayLocal(w, r, body)
		return
	}
	w.Header().Set("X-Request-Id", server.RequestID(r))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(merged)
}

// scatterLeg posts one leg to ep and returns a 200 body.
func (c *Coordinator) scatterLeg(ctx context.Context, ep string, legReq server.Request) legResult {
	payload, err := json.Marshal(legReq)
	if err != nil {
		return legResult{endpoint: ep, err: err}
	}
	res, err := c.x.do(ctx, ep, kindScatter, http.MethodPost, "/v1/query", payload, "")
	if err != nil || res.status != http.StatusOK {
		return legResult{endpoint: ep, err: err}
	}
	return legResult{endpoint: ep, body: res.body}
}

// proxy forwards the request body verbatim to the dataset's ring owner,
// walking the deterministic failover order (Owners) past unhealthy or
// unreachable peers. A 503 advances without a health mark (draining is
// voluntary); a transport error marks the peer failed. When every owner is
// exhausted, or an owner's body is oversize, the request is served locally.
func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, dataset string, body []byte) {
	ctx := r.Context()
	owners := c.ring.Owners(dataset, len(c.ring.Peers()))
	for _, ep := range owners {
		if !c.peers.IsHealthy(ep) {
			continue
		}
		// The body, query string (?trace=1 travels) and X-Request-Id go
		// verbatim.
		resp, err := c.x.do(ctx, ep, kindProxy, http.MethodPost, r.URL.RequestURI(), body, r.Header.Get("X-Request-Id"))
		if errors.Is(err, errMemberBodyTooLarge) {
			break // the owner answered; the next one would send the same body
		}
		if err != nil {
			c.peers.MarkFailure(ep, err)
			c.st.Inc(obs.CtrClusterFailovers)
			if ctx.Err() != nil {
				break // the client hung up; stop lapping the fleet
			}
			continue
		}
		if resp.status == http.StatusServiceUnavailable {
			c.st.Inc(obs.CtrClusterFailovers)
			continue
		}
		c.peers.MarkSuccess(ep)
		c.st.Inc(obs.CtrClusterRouteProxied)
		for _, h := range []string{"Content-Type", "X-Request-Id", "Retry-After"} {
			if v := resp.header.Get(h); v != "" {
				w.Header().Set(h, v)
			}
		}
		w.WriteHeader(resp.status)
		_, _ = w.Write(resp.body)
		return
	}
	c.replayLocal(w, r, body)
}

// replayLocal serves the original request through the local server,
// re-materializing the consumed body. Every response off this path is the
// exact single-node response — error taxonomy, guard ladder, cache, and
// framing included.
func (c *Coordinator) replayLocal(w http.ResponseWriter, r *http.Request, body []byte) {
	c.st.Inc(obs.CtrClusterRouteLocal)
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	c.local.ServeHTTP(w, r2)
}
