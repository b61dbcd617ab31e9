// Command wdptd serves WDPT evaluation over HTTP: a dataset registry of
// named databases, POST /v1/query mapped onto the consolidated Solve API,
// weighted admission control, and a bounded LRU result cache. The response
// body is byte-identical to wdpteval -json output for the same query and
// options; budget trips map onto the same taxonomy as the CLI exit codes
// (504 deadline, 413 tuple budget, 206 answer limit). See docs/SERVER.md.
//
//	wdptd -listen 127.0.0.1:8080 -dataset music=examples/data/music.txt
//
// Signals: SIGHUP hot-reloads every dataset file (atomically; a failed
// reload keeps the previous snapshots serving); SIGINT/SIGTERM drain
// in-flight queries under -shutdown-timeout, cancelling their evaluation
// contexts when the deadline passes.
//
// Persistence: with -snapshot-dir, startup and hot reload prefer a durable
// binary snapshot (<dir>/<name>.snap, docs/STORAGE.md) over reparsing the
// dataset text; corrupt snapshots are quarantined aside and counted, never
// served. POST /admin/snapshot persists every current dataset through the
// crash-safe writer. See docs/ROBUSTNESS.md.
//
// Clustering: with -role coordinator and -cluster-peers, the node fronts a
// sharded fleet (docs/CLUSTER.md): /v1/query routes to the dataset's
// consistent-hash owner, eligible union queries scatter-gather across
// healthy members with byte-identical merged responses, GET /v1/cluster
// reports peer health and ring assignment, and /metrics additionally
// carries the per-peer latency and per-endpoint attempt families. Members
// run with the default -role member and need no cluster flags.
//
//	-listen addr            listen address (default 127.0.0.1:8080)
//	-dataset name=path      register a dataset (repeatable, at least one)
//	-role r                 coordinator or member (default member)
//	-cluster-peers list     comma-separated member base URLs (coordinator)
//	-health-interval d      background peer health-probe period
//	-vnodes n               consistent-hash virtual nodes per peer
//	-snapshot-dir dir       durable snapshot directory: load <name>.snap at
//	                        startup/reload when present, enable
//	                        POST /admin/snapshot (empty disables)
//	-max-inflight n         total in-flight parallelism (0 = NumCPU)
//	-max-queue n            admission wait-queue bound; overflow is 429
//	-width-bound k          reject queries not globally in TW(k) with 422
//	-cache n                result-cache entries (0 disables)
//	-pprof                  mount net/http/pprof under /debug/pprof/
//	-shutdown-timeout d     drain deadline for graceful shutdown
//	-query-log dest         structured JSON-lines query log: stderr (default),
//	                        stdout, off, or a file path
//	-slow-query-threshold d promote queries at or above d to WARN with their
//	                        span tree inline (0 disables)
//	-selfcheck              start on an ephemeral port, probe the API once
//	                        (health, datasets, one query per dataset sent
//	                        twice so the second is a cache hit, the
//	                        /metrics scrape), verify each dataset's probe
//	                        query round-trips byte-identically through a
//	                        snapshot save -> load -> query cycle
//	                        (docs/STORAGE.md), exit
//	-metrics-out path       with -selfcheck, write the scraped /metrics
//	                        exposition to this file
//
// Observability: GET /metrics serves Prometheus text exposition 0.0.4
// (latency histograms, gauges, counters, Go runtime metrics);
// POST /v1/query?trace=1 returns the request's span tree in the report
// body. See docs/OBSERVABILITY.md and docs/SERVER.md.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"wdpt/internal/cluster"
	"wdpt/internal/core"
	"wdpt/internal/db"
	"wdpt/internal/db/snapshot"
	"wdpt/internal/obs"
	"wdpt/internal/report"
	"wdpt/internal/server"
	"wdpt/internal/server/client"
	"wdpt/internal/sparql"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// datasetFlags collects repeated -dataset name=path specs.
type datasetFlags struct {
	specs map[string]string
}

// String renders the specs deterministically (sorted by name).
func (d *datasetFlags) String() string {
	names := make([]string, 0, len(d.specs))
	for name := range d.specs {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, name+"="+d.specs[name])
	}
	return strings.Join(parts, ",")
}

// Set parses one name=path spec.
func (d *datasetFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	if d.specs == nil {
		d.specs = make(map[string]string)
	}
	if _, dup := d.specs[name]; dup {
		return fmt.Errorf("duplicate dataset %q", name)
	}
	d.specs[name] = path
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wdptd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var datasets datasetFlags
	fs.Var(&datasets, "dataset", "name=path dataset spec (repeatable, at least one required)")
	listen := fs.String("listen", "127.0.0.1:8080", "listen address")
	snapshotDir := fs.String("snapshot-dir", "", "durable snapshot directory: prefer <name>.snap over reparsing, enable POST /admin/snapshot (empty disables)")
	maxInflight := fs.Int("max-inflight", 0, "total in-flight parallelism across queries (0 = NumCPU)")
	maxQueue := fs.Int("max-queue", 16, "admission wait-queue bound; overflow is rejected with 429")
	widthBound := fs.Int("width-bound", 0, "reject queries not globally in TW(k) with 422 (0 = no bound)")
	cacheSize := fs.Int("cache", 256, "result-cache entries (0 disables caching)")
	enablePprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	shutdownTimeout := fs.Duration("shutdown-timeout", 10*time.Second, "drain deadline for graceful shutdown")
	queryLogDest := fs.String("query-log", "stderr", "query log destination: stderr, stdout, off, or a file path")
	slowQuery := fs.Duration("slow-query-threshold", 0, "promote queries at or above this wall time to WARN with their span tree (0 disables)")
	selfcheck := fs.Bool("selfcheck", false, "start on an ephemeral port, probe the API once, and exit")
	metricsOut := fs.String("metrics-out", "", "with -selfcheck, write the scraped /metrics exposition to this file")
	role := fs.String("role", "member", "cluster role: coordinator or member")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated member base URLs (coordinator role)")
	healthInterval := fs.Duration("health-interval", cluster.DefaultProbeInterval, "background peer health-probe period (coordinator role)")
	vnodes := fs.Int("vnodes", cluster.DefaultVirtualNodes, "consistent-hash virtual nodes per peer (coordinator role)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if len(datasets.specs) == 0 {
		fmt.Fprintln(stderr, "wdptd: at least one -dataset name=path is required")
		return 2
	}
	if *role != "member" && *role != "coordinator" {
		fmt.Fprintf(stderr, "wdptd: unknown -role %q (want coordinator or member)\n", *role)
		return 2
	}
	if *role == "coordinator" && strings.TrimSpace(*clusterPeers) == "" {
		fmt.Fprintln(stderr, "wdptd: -role coordinator requires -cluster-peers")
		return 2
	}
	if *role == "member" && strings.TrimSpace(*clusterPeers) != "" {
		fmt.Fprintln(stderr, "wdptd: -cluster-peers requires -role coordinator")
		return 2
	}
	queryLog, logClose, err := openQueryLog(*queryLogDest, stdout, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "wdptd: %v\n", err)
		return 2
	}
	defer logClose()
	st := obs.NewStats()
	reg, err := server.NewRegistryWithConfig(server.RegistryConfig{
		Specs:       datasets.specs,
		SnapshotDir: *snapshotDir,
		Stats:       st,
	})
	if err != nil {
		fmt.Fprintf(stderr, "wdptd: %v\n", err)
		return 2
	}
	srv, err := server.NewServer(server.Config{
		Registry:           reg,
		Stats:              st,
		MaxInFlight:        *maxInflight,
		MaxQueue:           *maxQueue,
		WidthBound:         *widthBound,
		CacheSize:          *cacheSize,
		EnablePprof:        *enablePprof,
		QueryLog:           queryLog,
		SlowQueryThreshold: *slowQuery,
	})
	if err != nil {
		fmt.Fprintf(stderr, "wdptd: %v\n", err)
		return 2
	}
	handler := http.Handler(srv)
	if *role == "coordinator" {
		peers := splitPeers(*clusterPeers)
		coord, cerr := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Local:         srv,
			Peers:         peers,
			VirtualNodes:  *vnodes,
			ProbeInterval: *healthInterval,
		})
		if cerr != nil {
			fmt.Fprintf(stderr, "wdptd: %v\n", cerr)
			return 2
		}
		probeCtx, probeCancel := context.WithCancel(context.Background())
		defer probeCancel()
		coord.Start(probeCtx)
		defer coord.Close()
		handler = coord
		fmt.Fprintf(stdout, "wdptd: coordinator over %d peer(s), %d virtual nodes\n", len(coord.Ring().Peers()), coord.Ring().VirtualNodes())
	}
	addr := *listen
	if *selfcheck {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fmt.Fprintf(stderr, "wdptd: %v\n", err)
		return 1
	}
	hs := newHTTPServer(handler)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	if *selfcheck {
		// A coordinator proxies the probes to their owners, so only a
		// caching member must show the re-sent probes as hits.
		expectHits := *cacheSize > 0 && *role == "member"
		err := selfCheck(fmt.Sprintf("http://%s", ln.Addr()), stdout, *metricsOut, expectHits)
		if err == nil {
			err = snapshotRoundTrip(reg, stdout)
		}
		shutdown(srv, hs, *shutdownTimeout)
		if err != nil {
			fmt.Fprintf(stderr, "wdptd: selfcheck: %v\n", err)
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "wdptd: serving %d dataset(s) on %s (registry version %d)\n", len(datasets.specs), ln.Addr(), reg.Version())
	sigCh := make(chan os.Signal, 4)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	defer signal.Stop(sigCh)
	for {
		select {
		case err := <-serveErr:
			fmt.Fprintf(stderr, "wdptd: serve: %v\n", err)
			return 1
		case sig := <-sigCh:
			if sig == syscall.SIGHUP {
				if version, err := reg.Reload(); err != nil {
					fmt.Fprintf(stderr, "wdptd: reload failed (previous snapshots keep serving): %v\n", err)
				} else {
					srv.Stats().Inc(obs.CtrServerReloads)
					fmt.Fprintf(stdout, "wdptd: reloaded datasets (registry version %d)\n", version)
				}
				continue
			}
			fmt.Fprintf(stdout, "wdptd: %v received, draining (deadline %s)\n", sig, *shutdownTimeout)
			shutdown(srv, hs, *shutdownTimeout)
			return 0
		}
	}
}

// splitPeers parses the comma-separated -cluster-peers list, dropping empty
// entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// newHTTPServer builds the listener's server. ReadHeaderTimeout bounds
// slow-header clients: without it, a client trickling its request headers
// holds a connection, and its admission slot, forever.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
}

// shutdown drains in-flight queries under the deadline (cancelling their
// contexts past it), then closes the listener and connections.
func shutdown(srv *server.Server, hs *http.Server, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	_ = srv.Shutdown(ctx)
	_ = hs.Shutdown(context.Background())
}

// openQueryLog resolves the -query-log destination into a JSON-lines slog
// logger: "off" disables it, "stderr"/"stdout" write to the process
// streams, anything else is an append-mode file path.
func openQueryLog(dest string, stdout, stderr io.Writer) (*slog.Logger, func(), error) {
	noop := func() {}
	switch dest {
	case "off", "":
		return nil, noop, nil
	case "stderr":
		return slog.New(slog.NewJSONHandler(stderr, nil)), noop, nil
	case "stdout":
		return slog.New(slog.NewJSONHandler(stdout, nil)), noop, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, noop, fmt.Errorf("opening query log: %w", err)
	}
	return slog.New(slog.NewJSONHandler(f, nil)), func() { _ = f.Close() }, nil
}

// selfCheck probes a freshly started server end to end: health, the dataset
// listing, one enumeration query per dataset built from its first relation
// and sent twice, and the /metrics scrape — the Prometheus exposition must
// parse with cumulative, monotone histogram buckets, carry the per-request
// histogram and report the probe requests. The re-sent probe must return
// the first body, and with expectHits it must be a result-cache hit: the
// scrape must count at least one hit per dataset. It is the smoke test
// scripts/check.sh runs against examples/. When metricsOut is non-empty,
// the scraped exposition is written there (the CI artifact).
func selfCheck(base string, stdout io.Writer, metricsOut string, expectHits bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	c := client.New(base, nil)
	h, err := c.Health(ctx)
	if err != nil {
		return err
	}
	if h.Status != "ok" {
		return fmt.Errorf("health status %q, want ok", h.Status)
	}
	list, err := c.Datasets(ctx)
	if err != nil {
		return err
	}
	if len(list.Datasets) == 0 {
		return fmt.Errorf("dataset listing is empty")
	}
	queries := 0
	for _, ds := range list.Datasets {
		if len(ds.Relations) == 0 || ds.Relations[0].Arity == 0 {
			return fmt.Errorf("dataset %q has no probeable relation", ds.Name)
		}
		rel := ds.Relations[0]
		vars := make([]string, rel.Arity)
		for i := range vars {
			vars[i] = fmt.Sprintf("?v%d", i+1)
		}
		query := fmt.Sprintf("SELECT ?v1 WHERE %s(%s)", rel.Name, strings.Join(vars, ", "))
		req := server.Request{Dataset: ds.Name, Query: query, Parallelism: 1}
		var first []byte
		for send := 0; send < 2; send++ {
			res, err := c.Query(ctx, req)
			if err != nil {
				return fmt.Errorf("dataset %q: %w", ds.Name, err)
			}
			if res.Status != http.StatusOK || res.Report == nil || res.Report.AnswerCount == nil {
				return fmt.Errorf("dataset %q: status %d, want 200 with a report", ds.Name, res.Status)
			}
			if first != nil && !bytes.Equal(res.Body, first) {
				return fmt.Errorf("dataset %q: the re-sent probe returned a different body", ds.Name)
			}
			first = res.Body
			queries++
		}
	}
	wantHits := 0
	if expectHits {
		wantHits = len(list.Datasets)
	}
	hits, err := checkMetrics(ctx, c, queries, wantHits, metricsOut)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wdptd: selfcheck ok (%d dataset(s), %d probe quer%s, %d cache hit(s), registry version %d, metrics endpoint ok)\n",
		len(list.Datasets), queries, pluralIES(queries), hits, h.Version)
	return nil
}

// checkMetrics sanity-checks the /metrics exposition after the probe
// queries ran and returns the result-cache hits it reports, failing when
// they are fewer than wantHits.
func checkMetrics(ctx context.Context, c *client.Client, queries, wantHits int, metricsOut string) (int, error) {
	text, err := c.MetricsText(ctx)
	if err != nil {
		return 0, err
	}
	fams, err := obs.ParsePromText(text)
	if err != nil {
		return 0, fmt.Errorf("/metrics does not parse as Prometheus exposition: %w", err)
	}
	if err := obs.CheckHistograms(fams); err != nil {
		return 0, err
	}
	qd := fams[obs.HistQueryDuration.String()]
	if qd == nil || qd.Type != "histogram" || len(qd.Samples) == 0 {
		return 0, fmt.Errorf("/metrics is missing the %s histogram", obs.HistQueryDuration)
	}
	reqs := fams["wdpt_server_requests_total"]
	if reqs == nil || len(reqs.Samples) != 1 || reqs.Samples[0].Value < float64(queries) {
		return 0, fmt.Errorf("/metrics does not report at least %d requests on wdpt_server_requests_total", queries)
	}
	hits := 0
	if f := fams["wdpt_server_cache_hits_total"]; f != nil && len(f.Samples) == 1 {
		hits = int(f.Samples[0].Value)
	}
	if hits < wantHits {
		return 0, fmt.Errorf("/metrics reports %d result-cache hits on wdpt_server_cache_hits_total, want at least %d (one per re-sent probe)", hits, wantHits)
	}
	if metricsOut != "" {
		if err := os.WriteFile(metricsOut, []byte(text), 0o644); err != nil {
			return 0, fmt.Errorf("writing -metrics-out: %w", err)
		}
	}
	return hits, nil
}

// snapshotRoundTrip persists each dataset through the crash-safe snapshot
// writer into a temporary directory, loads it back through the paranoid
// loader, and requires the probe query to evaluate byte-identically on the
// parsed and on the reloaded database — the persistence contract of
// docs/STORAGE.md checked end to end against the operator's real data.
func snapshotRoundTrip(reg *server.Registry, stdout io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	dir, err := os.MkdirTemp("", "wdptd-selfcheck-snap-")
	if err != nil {
		return fmt.Errorf("snapshot round-trip: %w", err)
	}
	defer func() { _ = os.RemoveAll(dir) }()
	datasets := reg.List()
	for _, ds := range datasets {
		if len(ds.Relations) == 0 {
			return fmt.Errorf("dataset %q has no probeable relation", ds.Name)
		}
		rel := ds.Relations[0]
		vars := make([]string, rel.Arity)
		for i := range vars {
			vars[i] = fmt.Sprintf("?v%d", i+1)
		}
		query := fmt.Sprintf("SELECT %s WHERE %s(%s)",
			strings.Join(vars, " "), rel.Name, strings.Join(vars, ", "))
		u, err := sparql.ParseUnionQuery(query)
		if err != nil {
			return fmt.Errorf("dataset %q: building probe query: %w", ds.Name, err)
		}
		path := filepath.Join(dir, ds.Name+".snap")
		if err := snapshot.Write(path, ds.DB); err != nil {
			return fmt.Errorf("dataset %q: saving snapshot: %w", ds.Name, err)
		}
		loaded, err := snapshot.Read(path)
		if err != nil {
			return fmt.Errorf("dataset %q: loading snapshot: %w", ds.Name, err)
		}
		var bodies [2][]byte
		for i, d := range [2]*db.Database{ds.DB, loaded} {
			res, err := u.Solve(ctx, d, core.SolveOptions{
				Mode:        core.ModeEnumerate,
				Parallelism: 1,
			})
			if err != nil {
				return fmt.Errorf("dataset %q (snapshot round-trip): %w", ds.Name, err)
			}
			rep := report.Report{Mode: core.ModeEnumerate.String(), Engine: "auto", Parallelism: 1}
			rep.SetAnswers(res.Answers)
			var buf bytes.Buffer
			if err := report.Encode(&buf, rep); err != nil {
				return fmt.Errorf("dataset %q (snapshot round-trip): %w", ds.Name, err)
			}
			bodies[i] = buf.Bytes()
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			return fmt.Errorf("dataset %q: snapshot round-trip disagrees with the parsed dataset (%d vs %d bytes)",
				ds.Name, len(bodies[0]), len(bodies[1]))
		}
	}
	fmt.Fprintf(stdout, "wdptd: selfcheck snapshot round-trip ok (%d dataset(s), save -> load -> query byte-identical)\n", len(datasets))
	return nil
}

// pluralIES returns the y/ies suffix.
func pluralIES(n int) string {
	if n == 1 {
		return "y"
	}
	return "ies"
}
