// Package client is a typed Go client for the wdptd HTTP API. It is used by
// the integration and load tests in internal/server and by anything that
// wants to talk to a running wdptd without hand-rolling requests; the raw
// response body is preserved on every query so callers can assert the
// byte-identical report contract, not just the decoded fields.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"wdpt/internal/report"
	"wdpt/internal/server"
)

// Client talks to one wdptd base URL. Every call is a single exchange; a
// throttled response is returned to the caller, never retried.
type Client struct {
	base string
	hc   *http.Client
}

// DefaultTimeout bounds one HTTP exchange when New is given a nil
// *http.Client. It is a transport safety net, not a query budget — request
// deadlines travel in the context, and evaluation budgets in the request
// document — so it is generous; its job is only to keep a hung peer from
// pinning a connection forever (wdptlint R17).
const DefaultTimeout = 5 * time.Minute

// New builds a client for the given base URL (e.g. "http://127.0.0.1:8080").
// A nil *http.Client uses a client with DefaultTimeout (never the
// timeout-less http.DefaultClient).
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: DefaultTimeout}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// Base returns the client's base URL.
func (c *Client) Base() string { return c.base }

// QueryResult is one /v1/query exchange: the HTTP status, the raw body
// (byte-identical to wdpteval -json output on success), and whichever of
// Report / Err the status implies.
type QueryResult struct {
	// Status is the HTTP status code (200, 206 answer-capped, 413, 504, ...).
	Status int
	// Body is the raw response body, exactly as served.
	Body []byte
	// Report is the decoded report for 200 and 206 responses.
	Report *report.Report
	// Err is the decoded typed error payload for every other status (nil if
	// the body was not an ErrorResponse).
	Err *server.ErrorPayload
	// RetryAfter is the Retry-After header, set on 429 rejections.
	RetryAfter string
}

// Query posts req to /v1/query. A non-2xx status is not an error — the
// taxonomy is part of the API — so err is non-nil only for transport or
// decoding failures.
func (c *Client) Query(ctx context.Context, req server.Request) (*QueryResult, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/query", bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("client: building request: %w", err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("client: POST /v1/query: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("client: reading response: %w", err)
	}
	qr := &QueryResult{Status: resp.StatusCode, Body: body, RetryAfter: resp.Header.Get("Retry-After")}
	switch resp.StatusCode {
	case http.StatusOK, http.StatusPartialContent:
		var rep report.Report
		if err := json.Unmarshal(body, &rep); err != nil {
			return nil, fmt.Errorf("client: decoding report: %w", err)
		}
		qr.Report = &rep
	default:
		var er server.ErrorResponse
		if err := json.Unmarshal(body, &er); err == nil {
			qr.Err = &er.Error
		}
	}
	return qr, nil
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (*server.Health, error) {
	var h server.Health
	if err := c.getJSON(ctx, http.MethodGet, "/healthz", &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Datasets fetches /v1/datasets.
func (c *Client) Datasets(ctx context.Context) (*server.DatasetList, error) {
	var l server.DatasetList
	if err := c.getJSON(ctx, http.MethodGet, "/v1/datasets", &l); err != nil {
		return nil, err
	}
	return &l, nil
}

// MetricsText fetches the Prometheus text exposition at /metrics, raw.
// Callers parse it with obs.ParsePromText.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return "", fmt.Errorf("client: GET /metrics: %w", err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("client: GET /metrics: unexpected status %d", resp.StatusCode)
	}
	return string(body), nil
}

// Reload posts /admin/reload and returns the new registry version.
func (c *Client) Reload(ctx context.Context) (int64, error) {
	var res server.ReloadResult
	if err := c.getJSON(ctx, http.MethodPost, "/admin/reload", &res); err != nil {
		return 0, err
	}
	return res.Version, nil
}

// Snapshot posts /admin/snapshot and returns the registry version the
// persisted snapshots capture plus the written file names.
func (c *Client) Snapshot(ctx context.Context) (*server.SnapshotResult, error) {
	var res server.SnapshotResult
	if err := c.getJSON(ctx, http.MethodPost, "/admin/snapshot", &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// getJSON performs a bodyless exchange and decodes a 200 response into out;
// any other status is surfaced as an error carrying the typed payload when
// one was served.
func (c *Client) getJSON(ctx context.Context, method, path string, out any) error {
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	resp, err := c.hc.Do(hreq)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("client: reading response: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		var er server.ErrorResponse
		if jerr := json.Unmarshal(body, &er); jerr == nil && er.Error.Code != "" {
			return fmt.Errorf("client: %s %s: %d %s: %s", method, path, resp.StatusCode, er.Error.Code, er.Error.Message)
		}
		return fmt.Errorf("client: %s %s: unexpected status %d", method, path, resp.StatusCode)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("client: decoding %s: %w", path, err)
	}
	return nil
}
