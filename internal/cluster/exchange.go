package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"wdpt/internal/obs"
)

// maxMemberBodyBytes bounds one member response body. A member body past it
// is never served or decoded: the coordinator replays the request through
// its local server instead, and the member stays healthy. Benchmark member
// bodies peak near 140 KB, so the bound leaves about 30x headroom.
const maxMemberBodyBytes = 4 << 20

// memberTimeout bounds one member exchange when CoordinatorConfig.HTTPClient
// is nil. It is a transport safety net, not a query budget — request
// deadlines travel in the context — so it is generous; its job is only to
// keep a hung member from pinning a connection forever (wdptlint R17).
const memberTimeout = 5 * time.Minute

// Exchange kinds, the kind label of wdptd_cluster_peer_latency_seconds.
const (
	kindProbe   = "probe"
	kindProxy   = "proxy"
	kindScatter = "scatter"
)

// errMemberBodyTooLarge reports a member body longer than
// maxMemberBodyBytes. The member answered, so it is not a peer failure.
var errMemberBodyTooLarge = errors.New("cluster: member body exceeds maxMemberBodyBytes")

// memberResp is one fully read member response.
type memberResp struct {
	status int
	header http.Header
	body   []byte
}

// exchanger is the coordinator's one HTTP path to its members: proxy
// forwards, scatter legs and health probes all go through do, so every
// exchange shares the same client, body bound and accounting.
type exchanger struct {
	hc       *http.Client
	latency  *obs.HistVec    // peer/kind/outcome
	attempts *obs.CounterVec // per endpoint
	failures *obs.CounterVec // per endpoint: transport error, 429 or 5xx
}

// do sends one request to the member at ep — path may carry a query string;
// a non-nil body goes as JSON; a non-empty reqID as X-Request-Id — and reads
// the response body once, up to maxMemberBodyBytes. A non-2xx status is
// data, not an error: err is a transport failure or errMemberBodyTooLarge.
func (x *exchanger) do(ctx context.Context, ep, kind, method, path string, body []byte, reqID string) (*memberResp, error) {
	start := time.Now()
	x.attempts.Inc(ep)
	res, err := x.roundTrip(ctx, method, ep+path, body, reqID)
	status := 0
	if res != nil {
		status = res.status
	}
	if (err != nil && !errors.Is(err, errMemberBodyTooLarge)) ||
		status == http.StatusTooManyRequests || status >= 500 {
		x.failures.Inc(ep)
	}
	x.latency.With(ep, kind, outcome(kind, status, err)).Observe(time.Since(start))
	return res, err
}

func (x *exchanger) roundTrip(ctx context.Context, method, url string, body []byte, reqID string) (*memberResp, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := x.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() { _ = resp.Body.Close() }()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxMemberBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(b) > maxMemberBodyBytes {
		return nil, errMemberBodyTooLarge
	}
	return &memberResp{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// outcome is the outcome label of one exchange: error for a failed
// exchange or a probe's non-2xx, degraded for a scatter leg's non-200,
// unavailable for a proxied 503 (a draining member), ok otherwise.
func outcome(kind string, status int, err error) string {
	switch {
	case err != nil:
		return "error"
	case kind == kindProbe && (status < 200 || status > 299):
		return "error"
	case kind == kindScatter && status != http.StatusOK:
		return "degraded"
	case kind == kindProxy && status == http.StatusServiceUnavailable:
		return "unavailable"
	}
	return "ok"
}
