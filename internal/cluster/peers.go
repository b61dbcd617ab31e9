package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"wdpt/internal/obs"
)

// DefaultProbeInterval is the background health-probe period when
// CoordinatorConfig.ProbeInterval is zero.
const DefaultProbeInterval = 2 * time.Second

// probeTimeout bounds one health probe exchange.
const probeTimeout = 2 * time.Second

// PeerState is one peer's point-in-time health, as reported by
// GET /v1/cluster.
type PeerState struct {
	// Endpoint is the peer's base URL.
	Endpoint string `json:"endpoint"`
	// Healthy reports whether the peer is currently routable.
	Healthy bool `json:"healthy"`
	// ConsecFails is the current consecutive-failure streak.
	ConsecFails int `json:"consec_fails"`
	// LastErr is the most recent failure, empty after a success.
	LastErr string `json:"last_err,omitempty"`
}

// peerEntry is the mutable state behind one PeerState.
type peerEntry struct {
	healthy     bool
	consecFails int
	lastErr     string
}

// Peers is a health-checked peer table: a fixed endpoint set whose
// health flips on probe results and live exchange outcomes. All methods
// are safe for concurrent use. Endpoints are tracked in sorted order so
// every read (Healthy, States) is deterministic.
type Peers struct {
	endpoints []string // sorted, deduped
	interval  time.Duration
	st        *obs.Stats
	x         *exchanger

	mu    sync.Mutex
	state map[string]*peerEntry

	stop chan struct{}
	wg   sync.WaitGroup
}

// newPeers builds a peer table over the given endpoints that probes every
// interval through x and counts cluster.* events into st. Peers start
// healthy — optimistic routing lets a cluster serve before the first probe
// round, and a bad peer is demoted by its first failed exchange.
func newPeers(endpoints []string, interval time.Duration, st *obs.Stats, x *exchanger) *Peers {
	if interval <= 0 {
		interval = DefaultProbeInterval
	}
	r := NewRing(endpoints, 1) // reuse the sort/dedup normalization
	p := &Peers{
		endpoints: r.Peers(),
		interval:  interval,
		st:        st,
		x:         x,
		state:     make(map[string]*peerEntry),
		stop:      make(chan struct{}),
	}
	for _, ep := range p.endpoints {
		p.state[ep] = &peerEntry{healthy: true}
	}
	return p
}

// Healthy returns the currently-healthy endpoints in sorted order.
func (p *Peers) Healthy() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.endpoints))
	for _, ep := range p.endpoints {
		if p.state[ep].healthy {
			out = append(out, ep)
		}
	}
	return out
}

// IsHealthy reports whether the endpoint is currently routable. Unknown
// endpoints are unhealthy.
func (p *Peers) IsHealthy(endpoint string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.state[endpoint]
	return e != nil && e.healthy
}

// States returns every peer's state in sorted endpoint order.
func (p *Peers) States() []PeerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerState, 0, len(p.endpoints))
	for _, ep := range p.endpoints {
		e := p.state[ep]
		out = append(out, PeerState{
			Endpoint:    ep,
			Healthy:     e.healthy,
			ConsecFails: e.consecFails,
			LastErr:     e.lastErr,
		})
	}
	return out
}

// MarkSuccess records a successful exchange with the endpoint, resetting
// its failure streak and flipping it healthy if it was not.
func (p *Peers) MarkSuccess(endpoint string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.state[endpoint]
	if e == nil {
		return
	}
	e.consecFails = 0
	e.lastErr = ""
	if !e.healthy {
		e.healthy = true
		p.st.Inc(obs.CtrClusterHealthTransitions)
	}
}

// MarkFailure records a failed exchange with the endpoint, which flips the
// peer unhealthy: a coordinator that just watched an exchange fail should
// not route the next request the same way.
func (p *Peers) MarkFailure(endpoint string, err error) {
	p.st.Inc(obs.CtrClusterPeerFailures)
	p.mu.Lock()
	defer p.mu.Unlock()
	e := p.state[endpoint]
	if e == nil {
		return
	}
	e.consecFails++
	if err != nil {
		e.lastErr = err.Error()
	}
	if e.healthy {
		e.healthy = false
		p.st.Inc(obs.CtrClusterHealthTransitions)
	}
}

// Start launches the background probe loop. Close joins it.
func (p *Peers) Start(ctx context.Context) {
	p.wg.Add(1)
	//lint:ignore R11 joined by protocol across functions: Close closes p.stop and Waits on p.wg, and the loop's only blocking points select on p.stop/ctx — the prober cannot outlive Close
	go func() {
		defer p.wg.Done()
		ticker := time.NewTicker(p.interval)
		defer ticker.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-ctx.Done():
				return
			case <-ticker.C:
				p.ProbeAll(ctx)
			}
		}
	}()
}

// Close stops the probe loop and waits for it to exit. Safe to call
// without Start; not safe to call twice.
func (p *Peers) Close() {
	close(p.stop)
	p.wg.Wait()
}

// ProbeAll probes every peer once, in sorted order, updating health state.
func (p *Peers) ProbeAll(ctx context.Context) {
	for _, ep := range p.endpoints {
		p.st.Inc(obs.CtrClusterHealthProbes)
		if err := p.probeOne(ctx, ep); err != nil {
			p.MarkFailure(ep, err)
		} else {
			p.MarkSuccess(ep)
		}
	}
}

// probeOne GETs <endpoint>/healthz; a transport error or non-2xx status is
// a failure.
func (p *Peers) probeOne(ctx context.Context, endpoint string) error {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	res, err := p.x.do(ctx, endpoint, kindProbe, http.MethodGet, "/healthz", nil, "")
	if err != nil {
		return err
	}
	if res.status < 200 || res.status > 299 {
		return fmt.Errorf("cluster: %s/healthz: HTTP %d", endpoint, res.status)
	}
	return nil
}
