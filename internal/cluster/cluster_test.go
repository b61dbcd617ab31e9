// Integration tests for the cluster coordinator: a real fleet (httptest
// members + a coordinator front end) evaluated against a single plain wdptd
// node serving the same datasets. The load-bearing assertions are raw-body
// byte comparisons — the scatter-gather merge contract is that a client
// cannot tell a coordinator from a single node by looking at response
// bytes.
package cluster_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wdpt/internal/cluster"
	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/guard"
	"wdpt/internal/obs"
	"wdpt/internal/server"
	"wdpt/internal/server/client"
	"wdpt/internal/sparql"
)

// unionQuery is a 4-member union over the chain database: enough members to
// spread across every peer of a 3-member fleet with wraparound.
const unionQuery = "SELECT ?y0 WHERE E(?y0, ?y1)" +
	" UNION SELECT ?y1 WHERE E(?y0, ?y1)" +
	" UNION SELECT ?y0 WHERE (E(?y0, ?y1) AND E(?y1, ?y2))" +
	" UNION SELECT ?y2 WHERE (E(?y0, ?y1) AND E(?y1, ?y2))"

// writeDataset renders d into a file under a fresh temp dir.
func writeDataset(t *testing.T, d *db.Database) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.txt")
	if err := os.WriteFile(path, []byte(sparql.FormatDatabase(d)), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// newNode builds one wdptd server over the given specs. Every node of a
// fleet gets its own registry over the same dataset files — the deployment
// contract docs/CLUSTER.md states.
func newNode(t *testing.T, cfg server.Config, specs map[string]string) *server.Server {
	t.Helper()
	reg, err := server.NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Registry = reg
	srv, err := server.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// fleet is a running test cluster plus the plain single node it is compared
// against.
type fleet struct {
	coord    *cluster.Coordinator
	coordCl  *client.Client
	coordURL string
	members  []*httptest.Server
	// singleURL is the plain single node's base URL, for raw-body posts.
	singleURL string
	// memberHits counts /v1/query arrivals per member, index-aligned with
	// members.
	memberHits []*atomic.Int64
	// memberStatus, when set non-zero, makes that member answer every
	// /v1/query with the status instead of evaluating it.
	memberStatus []*atomic.Int32
	single       *client.Client
	// local is the coordinator's own server; its stats sink carries the
	// cluster.* counters.
	local *server.Server
}

// startFleet starts n members, a coordinator over them, and a plain
// single-node reference server, all over the same dataset files. Each
// opts function may adjust the coordinator's config before it is built.
func startFleet(t *testing.T, n int, specs map[string]string, cfg server.Config, opts ...func(*cluster.CoordinatorConfig)) *fleet {
	t.Helper()
	f := &fleet{}
	var endpoints []string
	for i := 0; i < n; i++ {
		srv := newNode(t, cfg, specs)
		hits := &atomic.Int64{}
		status := &atomic.Int32{}
		hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/query" {
				hits.Add(1)
				if code := status.Load(); code != 0 {
					w.WriteHeader(int(code))
					_, _ = w.Write([]byte(`{"error":{"code":"shutting_down","message":"server is shutting down"}}`))
					return
				}
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(hs.Close)
		f.members = append(f.members, hs)
		f.memberHits = append(f.memberHits, hits)
		f.memberStatus = append(f.memberStatus, status)
		endpoints = append(endpoints, hs.URL)
	}
	f.local = newNode(t, cfg, specs)
	ccfg := cluster.CoordinatorConfig{Local: f.local, Peers: endpoints}
	for _, opt := range opts {
		opt(&ccfg)
	}
	coord, err := cluster.NewCoordinator(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	f.coord = coord
	chs := httptest.NewServer(coord)
	t.Cleanup(chs.Close)
	f.coordURL = chs.URL
	f.coordCl = client.New(chs.URL, nil)

	single := newNode(t, cfg, specs)
	shs := httptest.NewServer(single)
	t.Cleanup(shs.Close)
	f.single = client.New(shs.URL, nil)
	f.singleURL = shs.URL
	return f
}

// postRaw posts body verbatim to base's /v1/query and returns the status
// and the response body.
func postRaw(t *testing.T, base, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// bothBodies queries the coordinator and the single node with the same
// request and returns both results.
func (f *fleet) bothBodies(t *testing.T, req server.Request) (*client.QueryResult, *client.QueryResult) {
	t.Helper()
	got, err := f.coordCl.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("coordinator query: %v", err)
	}
	want, err := f.single.Query(context.Background(), req)
	if err != nil {
		t.Fatalf("single-node query: %v", err)
	}
	return got, want
}

func chainSpecs(t *testing.T) map[string]string {
	t.Helper()
	return map[string]string{"chain": writeDataset(t, gen.ChainDatabase(4))}
}

// hostileQuery is a 3-member union over hostileDatabase with an OPT
// member (answers with and without ?t), members sharing answers ({x, v}
// for every untagged item), and three answer domains, so maximal drops
// answers of one leg that another leg's answers properly subsume.
const hostileQuery = "SELECT ?x ?v ?t WHERE item(?x, ?v) OPT tag(?x, ?t)" +
	" UNION SELECT ?x ?v WHERE item(?x, ?v)" +
	" UNION SELECT ?t WHERE tag(?x, ?t)"

// hostileDatabase holds values that need every kind of JSON escape: HTML
// characters, quotes and backslashes, control bytes, U+2028/U+2029 and
// valid non-ASCII.
func hostileDatabase() *db.Database {
	d := db.New()
	for _, f := range [][3]string{
		{"item", "i1", "<a&b>"},
		{"item", "i2", `say "hi"`},
		{"item", "i3", "nul\x00byte"},
		{"item", "i4", "line\u2028sep\u2029"},
		{"item", "i5", "caf\u00e9"},
		{"item", "i6", "\u65e5\u672c\u8a9e"},
		{"item", "i7", `back\slash`},
		{"item", "i8", "tab\there\nnl\x1f"},
		{"item", "i9", "plain"},
		{"tag", "i1", "&amp;"},
		{"tag", "i3", "\u00e9"},
		{"tag", "i5", "<"},
		{"tag", "i5", ">"},
		{"tag", "i9", `q"`},
	} {
		d.Insert(f[0], f[1], f[2])
	}
	return d
}

// hostilePins are the SHA-256 digests of the single node's hostileQuery
// bodies at Parallelism 1, computed before the coordinator spliced member
// bytes.
var hostilePins = map[string]string{
	"enumerate": "33978ddd974899cc8a622b96460f638dc8ba9b2dc2e98b7a4196f562357e339d",
	"maximal":   "c5d6b7e9eb4c9ee0ca5a5b233b986bcb1bb5994beff7f242c2dc119c078ee703",
}

// TestScatterGatherByteParity is the acceptance pin: for enumerate and
// maximal at P ∈ {1, 8}, the coordinator's merged union body is
// byte-identical to the single-node response, the members actually
// carried the legs, and every request was answered by the merge — none
// was replayed locally.
func TestScatterGatherByteParity(t *testing.T) {
	specs := chainSpecs(t)
	specs["hostile"] = writeDataset(t, hostileDatabase())
	f := startFleet(t, 3, specs, server.Config{MaxInFlight: 16})
	for _, tc := range []struct{ prefix, dataset, query string }{{"", "chain", unionQuery}, {"hostile_", "hostile", hostileQuery}} {
		for _, mode := range []string{"enumerate", "maximal"} {
			for _, par := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s%s_p%d", tc.prefix, mode, par), func(t *testing.T) {
					req := server.Request{Dataset: tc.dataset, Query: tc.query, Mode: mode, Parallelism: par}
					got, want := f.bothBodies(t, req)
					if want.Status != http.StatusOK {
						t.Fatalf("single node status %d: %s", want.Status, want.Body)
					}
					if got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
						t.Fatalf("coordinator body diverged:\n%s\nwant:\n%s", got.Body, want.Body)
					}
					if got.Report.AnswerCount == nil || *got.Report.AnswerCount == 0 {
						t.Fatal("merged union returned no answers")
					}
					if tc.dataset == "hostile" && par == 1 {
						if sum := sha256.Sum256(got.Body); hex.EncodeToString(sum[:]) != hostilePins[mode] {
							t.Errorf("body digest %x, want %s", sum, hostilePins[mode])
						}
					}
				})
			}
		}
	}
	if got := f.coord.Peers().Healthy(); len(got) != 3 {
		t.Fatalf("healthy peers = %d, want 3", len(got))
	}
	hits := int64(0)
	for _, h := range f.memberHits {
		if h.Load() == 0 {
			t.Error("a member carried no scatter legs")
		}
		hits += h.Load()
	}
	if hits == 0 {
		t.Fatal("no member traffic at all — scatter never happened")
	}
	st := f.local.Stats()
	if n := st.Get(obs.CtrClusterScatters); n != 8 {
		t.Errorf("cluster.scatters = %d, want 8", n)
	}
	for _, c := range []obs.Counter{obs.CtrClusterScatterFallbacks, obs.CtrClusterRouteLocal} {
		if n := st.Get(c); n != 0 {
			t.Errorf("%s = %d, want 0: the merge replayed instead of answering", c, n)
		}
	}
}

// TestScatterReplaysInvalidUTF8 pins that a leg whose values are not
// valid UTF-8 is replayed, not merged: the member writes each invalid byte
// as \ufffd, which loses the raw bytes the single node orders by. Here
// "a\xc3" sorts before "a\u00e9" on the single node but its encoding
// "a\ufffd" sorts after, so a merge of the decoded legs would swap them.
func TestScatterReplaysInvalidUTF8(t *testing.T) {
	d := db.New()
	d.Insert("item", "i1", "a\xc3")
	d.Insert("item", "i2", "a\u00e9")
	f := startFleet(t, 2, map[string]string{"bytes": writeDataset(t, d)}, server.Config{MaxInFlight: 4})
	q := "SELECT ?v WHERE item(i1, ?v) UNION SELECT ?v WHERE item(i2, ?v)"
	got, want := f.bothBodies(t, server.Request{Dataset: "bytes", Query: q, Parallelism: 1})
	if want.Status != http.StatusOK || got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("coordinator served %d:\n%s\nsingle node %d:\n%s", got.Status, got.Body, want.Status, want.Body)
	}
	if n := f.local.Stats().Get(obs.CtrClusterScatterFallbacks); n != 1 {
		t.Errorf("cluster.scatter_fallbacks = %d, want 1", n)
	}
}

// TestScatterDeterminismUnderSeededDelays is the determinism pin (ISSUE
// satellite 3): seeded delays at the par.task fault site shuffle the order
// scatter legs complete in, across several seeds and P ∈ {1, 8}, and every
// response stays byte-identical to the undelayed baseline — including the
// maximal mode, whose merge is order-sensitive if implemented naively.
func TestScatterDeterminismUnderSeededDelays(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 16})
	baselines := map[string][]byte{}
	for _, mode := range []string{"enumerate", "maximal"} {
		for _, par := range []int{1, 8} {
			req := server.Request{Dataset: "chain", Query: unionQuery, Mode: mode, Parallelism: par}
			res, err := f.coordCl.Query(context.Background(), req)
			if err != nil || res.Status != http.StatusOK {
				t.Fatalf("baseline %s p%d: %v status %d", mode, par, err, res.Status)
			}
			baselines[mode+fmt.Sprint(par)] = res.Body
		}
	}
	for _, seed := range []int64{1, 7, 42} {
		restore := guard.Activate(guard.NewInjector(seed).DelayProb(guard.SiteParTask, 0.7, 2*time.Millisecond))
		for _, mode := range []string{"enumerate", "maximal"} {
			for _, par := range []int{1, 8} {
				req := server.Request{Dataset: "chain", Query: unionQuery, Mode: mode, Parallelism: par}
				res, err := f.coordCl.Query(context.Background(), req)
				if err != nil || res.Status != http.StatusOK {
					restore()
					t.Fatalf("seed %d %s p%d: %v status %d", seed, mode, par, err, res.Status)
				}
				if !bytes.Equal(res.Body, baselines[mode+fmt.Sprint(par)]) {
					restore()
					t.Fatalf("seed %d %s p%d: body diverged from baseline:\n%s\nwant:\n%s",
						seed, mode, par, res.Body, baselines[mode+fmt.Sprint(par)])
				}
			}
		}
		restore()
	}
}

// TestScatterFallsBackWhenMemberDies pins the guard-ladder degrade path: a
// member killed out from under the fleet turns its scatter legs into
// transport errors, the coordinator replays the query locally, and the
// response is still byte-identical to the single node's. The dead peer is
// demoted, and subsequent unions scatter over the survivors and stay
// byte-identical too.
func TestScatterFallsBackWhenMemberDies(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 16})
	dead := f.members[1]
	deadURL := dead.URL
	dead.Close()

	req := server.Request{Dataset: "chain", Query: unionQuery, Parallelism: 8}
	got, want := f.bothBodies(t, req)
	if got.Status != http.StatusOK || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("post-kill body diverged (status %d):\n%s\nwant:\n%s", got.Status, got.Body, want.Body)
	}
	if f.coord.Peers().IsHealthy(deadURL) {
		t.Fatal("dead peer still marked healthy after failed legs")
	}
	st := f.coord.Peers().States()
	if len(st) != 3 {
		t.Fatalf("peer states = %d, want 3", len(st))
	}

	// Two survivors remain: the next union scatters across them and still
	// matches the single node byte for byte.
	got2, want2 := f.bothBodies(t, server.Request{Dataset: "chain", Query: unionQuery, Mode: "maximal", Parallelism: 1})
	if got2.Status != http.StatusOK || !bytes.Equal(got2.Body, want2.Body) {
		t.Fatalf("survivor scatter diverged:\n%s\nwant:\n%s", got2.Body, want2.Body)
	}
}

// TestScatterFallbackOnBudgetTrip pins the budget degrade path: legs carry
// the request budget, a per-leg trip makes the scatter non-clean, and the
// local replay serves the exact single-node guard taxonomy (413
// tuple_budget with meter readings). Bodies are not compared byte-wise here
// — trip payloads carry elapsed_ms — the taxonomy and counters are the
// contract (docs/CLUSTER.md).
func TestScatterFallbackOnBudgetTrip(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 16})
	res, err := f.coordCl.Query(context.Background(), server.Request{
		Dataset: "chain", Query: unionQuery, Parallelism: 1,
		Budget: &server.BudgetSpec{MaxTuples: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusRequestEntityTooLarge || res.Err == nil || res.Err.Code != "tuple_budget" {
		t.Fatalf("status %d payload %+v, want 413 tuple_budget", res.Status, res.Err)
	}
	if res.Err.Tuples < 1 {
		t.Errorf("trip payload carries Tuples=%d, want >= 1", res.Err.Tuples)
	}
}

// TestAnswerCapIsNotScattered pins two contracts at once: a MaxAnswers
// budget (global truncation) is never scattered, and the proxied degraded
// 206 body is byte-identical to the single node's — the "degraded responses
// stay byte-identical" half of the parity contract, on a body with no
// timing fields.
func TestAnswerCapIsNotScattered(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 16})
	req := server.Request{Dataset: "chain", Query: unionQuery, Parallelism: 1,
		Budget: &server.BudgetSpec{MaxAnswers: 1}}
	got, want := f.bothBodies(t, req)
	if want.Status != http.StatusPartialContent {
		t.Fatalf("single node status %d, want 206", want.Status)
	}
	if got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("proxied 206 diverged (status %d):\n%s\nwant:\n%s", got.Status, got.Body, want.Body)
	}
}

// TestWidthBoundNotMaskedByScatter pins that a coordinator with a width
// bound rejects exactly like a single node instead of scattering the
// members (which individually evaluate fine) and serving a merged 200.
func TestWidthBoundNotMaskedByScatter(t *testing.T) {
	specs := chainSpecs(t)
	cfg := server.Config{MaxInFlight: 16, WidthBound: 1}
	f := startFleet(t, 3, specs, cfg)
	// A triangle member has treewidth 2; the other member is within bound.
	q := "SELECT ?x WHERE (E(?x, ?y) AND E(?y, ?z) AND E(?z, ?x)) UNION SELECT ?x WHERE E(?x, ?y)"
	got, want := f.bothBodies(t, server.Request{Dataset: "chain", Query: q})
	if want.Status != http.StatusUnprocessableEntity {
		t.Fatalf("single node status %d, want 422", want.Status)
	}
	if got.Status != want.Status || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("width-bound body diverged (status %d):\n%s\nwant:\n%s", got.Status, got.Body, want.Body)
	}
}

// TestTrailingDataRejectedLikeSingleNode pins that a request document
// followed by anything but whitespace is a 400 bad_request on the
// coordinator with the single node's exact bytes, whether the document
// alone would scatter (a union) or proxy (a single tree). A trailing
// newline stays legal.
func TestTrailingDataRejectedLikeSingleNode(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 16})
	for _, q := range []string{unionQuery, "SELECT ?y0 WHERE E(?y0, ?y1)"} {
		doc, err := json.Marshal(server.Request{Dataset: "chain", Query: q, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []string{" trailing garbage", " {}", "}", "\n\n1"} {
			body := string(doc) + tail
			wantStatus, want := postRaw(t, f.singleURL, body)
			gotStatus, got := postRaw(t, f.coordURL, body)
			if wantStatus != http.StatusBadRequest || !bytes.Contains(want, []byte(`"bad_request"`)) {
				t.Fatalf("single node served %d for %q, want 400 bad_request: %s", wantStatus, tail, want)
			}
			if gotStatus != wantStatus || !bytes.Equal(got, want) {
				t.Fatalf("coordinator diverged on %q (status %d):\n%s\nwant:\n%s", tail, gotStatus, got, want)
			}
		}
		wantStatus, want := postRaw(t, f.singleURL, string(doc)+"\n")
		gotStatus, got := postRaw(t, f.coordURL, string(doc)+"\n")
		if wantStatus != http.StatusOK || gotStatus != wantStatus || !bytes.Equal(got, want) {
			t.Fatalf("trailing newline: coordinator %d, single node %d, want 200 and equal bodies:\n%s\nwant:\n%s",
				gotStatus, wantStatus, got, want)
		}
	}
}

// TestProxyRoutesToOwnerAndFailsOver pins dataset routing: a single-tree
// query lands on the ring owner (byte-identical body), and with the owner
// killed the coordinator fails over — the answer still matches the single
// node byte for byte.
func TestProxyRoutesToOwnerAndFailsOver(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 16})
	req := server.Request{Dataset: "chain", Query: "SELECT ?y0 WHERE E(?y0, ?y1)", Parallelism: 1}
	got, want := f.bothBodies(t, req)
	if got.Status != http.StatusOK || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("proxied body diverged:\n%s\nwant:\n%s", got.Body, want.Body)
	}
	owner := f.coord.Ring().Owner("chain")
	ownerIdx := -1
	for i, hs := range f.members {
		if hs.URL == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("ring owner %q is not a member", owner)
	}
	if f.memberHits[ownerIdx].Load() == 0 {
		t.Fatal("ring owner saw no proxied traffic")
	}

	f.members[ownerIdx].Close()
	got2, want2 := f.bothBodies(t, req)
	if got2.Status != http.StatusOK || !bytes.Equal(got2.Body, want2.Body) {
		t.Fatalf("failover body diverged:\n%s\nwant:\n%s", got2.Body, want2.Body)
	}
	if f.coord.Peers().IsHealthy(owner) {
		t.Fatal("killed owner still marked healthy")
	}
}

// TestAllPeersDownServesLocally pins the last rung: with every member dead
// the coordinator evaluates locally and the response still matches the
// single node byte for byte, for both the proxy and scatter paths.
func TestAllPeersDownServesLocally(t *testing.T) {
	f := startFleet(t, 2, chainSpecs(t), server.Config{MaxInFlight: 16})
	for _, hs := range f.members {
		hs.Close()
	}
	for _, q := range []string{"SELECT ?y0 WHERE E(?y0, ?y1)", unionQuery} {
		got, want := f.bothBodies(t, server.Request{Dataset: "chain", Query: q, Parallelism: 1})
		if got.Status != http.StatusOK || !bytes.Equal(got.Body, want.Body) {
			t.Fatalf("local-fallback body diverged for %q:\n%s\nwant:\n%s", q, got.Body, want.Body)
		}
	}
}

// TestClusterStatusEndpoint pins GET /v1/cluster: role, sorted peers, and a
// ring assignment whose owners are members of the fleet.
func TestClusterStatusEndpoint(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 16})
	resp, err := http.Get(f.coordURL + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var st cluster.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "coordinator" {
		t.Fatalf("role = %q", st.Role)
	}
	if len(st.Peers) != 3 {
		t.Fatalf("peers = %d, want 3", len(st.Peers))
	}
	for i := 1; i < len(st.Peers); i++ {
		if st.Peers[i-1].Endpoint >= st.Peers[i].Endpoint {
			t.Fatal("peer states not sorted by endpoint")
		}
	}
	owner, ok := st.Datasets["chain"]
	if !ok {
		t.Fatal("dataset assignment missing")
	}
	found := false
	for _, p := range st.Peers {
		if p.Endpoint == owner {
			found = true
		}
	}
	if !found {
		t.Fatalf("owner %q is not a fleet member", owner)
	}
}

// TestClusterMetricsExposed pins the observability satellite: after cluster
// traffic, the coordinator's /metrics carries the per-peer latency
// histogram family, the per-endpoint attempt counters, and the cluster.*
// counters (via the local server's stats sink).
func TestClusterMetricsExposed(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 16})
	if _, err := f.coordCl.Query(context.Background(), server.Request{Dataset: "chain", Query: unionQuery}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.coordCl.Query(context.Background(), server.Request{Dataset: "chain", Query: "SELECT ?y0 WHERE E(?y0, ?y1)"}); err != nil {
		t.Fatal(err)
	}
	text, err := f.coordCl.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, family := range []string{
		"wdptd_cluster_peer_latency_seconds",
		"wdptd_client_endpoint_attempts_total",
		"wdpt_cluster_scatters_total",
		"wdpt_cluster_route_proxied_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	fams, err := obs.ParsePromText(text)
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	if len(fams) == 0 {
		t.Fatal("empty exposition")
	}
	st := f.coord.Peers()
	for _, ps := range st.States() {
		if !ps.Healthy {
			t.Errorf("peer %s unexpectedly unhealthy", ps.Endpoint)
		}
	}
}

// TestCoordinatorStartClose pins the probe lifecycle: Start launches the
// prober, probes mark a live fleet healthy, and Close joins cleanly.
func TestCoordinatorStartClose(t *testing.T) {
	specs := chainSpecs(t)
	f := startFleet(t, 2, specs, server.Config{MaxInFlight: 4})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f.coord.Start(ctx)
	f.coord.Peers().ProbeAll(ctx)
	if got := len(f.coord.Peers().Healthy()); got != 2 {
		t.Fatalf("healthy after probe = %d, want 2", got)
	}
	f.coord.Close()
}

// countingTransport wraps http.DefaultTransport and counts requests by
// "METHOD host/path".
type countingTransport struct {
	mu   sync.Mutex
	seen map[string]int
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.mu.Lock()
	c.seen[r.Method+" "+r.URL.Host+r.URL.Path]++
	c.mu.Unlock()
	return http.DefaultTransport.RoundTrip(r)
}

// TestProbesUseHTTPClient pins that health probes go through
// CoordinatorConfig.HTTPClient: one GET /healthz per member per ProbeAll.
func TestProbesUseHTTPClient(t *testing.T) {
	ct := &countingTransport{seen: map[string]int{}}
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 4}, func(cfg *cluster.CoordinatorConfig) {
		cfg.HTTPClient = &http.Client{Transport: ct, Timeout: time.Minute}
	})
	f.coord.Peers().ProbeAll(context.Background())
	ct.mu.Lock()
	defer ct.mu.Unlock()
	for _, hs := range f.members {
		key := "GET " + strings.TrimPrefix(hs.URL, "http://") + "/healthz"
		if ct.seen[key] != 1 {
			t.Errorf("%s seen %d times through HTTPClient, want 1 (all: %v)", key, ct.seen[key], ct.seen)
		}
	}
	if len(ct.seen) != len(f.members) {
		t.Errorf("HTTPClient saw %v, want only the %d probes", ct.seen, len(f.members))
	}
}

// TestOversizeMemberBodyReplaysLocally pins the member-read bound: a member
// 200 body past maxMemberBodyBytes (4 MiB) is neither served nor merged.
// The coordinator replays the request locally, so its body is the single
// node's, the matching counter rises by exactly one, and the members stay
// healthy (they answered).
func TestOversizeMemberBodyReplaysLocally(t *testing.T) {
	huge := bytes.Repeat([]byte{'x'}, 5<<20)
	for _, tc := range []struct {
		name    string
		query   string
		counter obs.Counter
	}{
		{"proxy", "SELECT ?y0 WHERE E(?y0, ?y1)", obs.CtrClusterRouteLocal},
		{"scatter", unionQuery, obs.CtrClusterScatterFallbacks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var members []string
			for i := 0; i < 2; i++ {
				hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Type", "application/json")
					_, _ = w.Write(huge)
				}))
				t.Cleanup(hs.Close)
				members = append(members, hs.URL)
			}
			specs := chainSpecs(t)
			cfg := server.Config{MaxInFlight: 4}
			local := newNode(t, cfg, specs)
			coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Local: local, Peers: members})
			if err != nil {
				t.Fatal(err)
			}
			chs := httptest.NewServer(coord)
			t.Cleanup(chs.Close)
			shs := httptest.NewServer(newNode(t, cfg, specs))
			t.Cleanup(shs.Close)

			doc, err := json.Marshal(server.Request{Dataset: "chain", Query: tc.query, Parallelism: 1})
			if err != nil {
				t.Fatal(err)
			}
			before := local.Stats().Get(tc.counter)
			gotStatus, got := postRaw(t, chs.URL, string(doc))
			wantStatus, want := postRaw(t, shs.URL, string(doc))
			if wantStatus != http.StatusOK || gotStatus != wantStatus || !bytes.Equal(got, want) {
				t.Fatalf("coordinator served %d (%d bytes), single node %d; want equal 200 bodies", gotStatus, len(got), wantStatus)
			}
			if d := local.Stats().Get(tc.counter) - before; d != 1 {
				t.Errorf("%s rose by %d, want 1", tc.counter, d)
			}
			if h := coord.Peers().Healthy(); len(h) != len(members) {
				t.Errorf("healthy peers = %v, want all %d", h, len(members))
			}
		})
	}
}

// endpointCounts scrapes the coordinator's per-endpoint attempt and failure
// counters from /metrics.
func endpointCounts(t *testing.T, f *fleet) (attempts, failures map[string]float64) {
	t.Helper()
	text, err := f.coordCl.MetricsText(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParsePromText(text)
	if err != nil {
		t.Fatal(err)
	}
	read := func(family string) map[string]float64 {
		out := map[string]float64{}
		if fam := fams[family]; fam != nil {
			for _, s := range fam.Samples {
				out[s.Labels["endpoint"]] += s.Value
			}
		}
		return out
	}
	return read("wdptd_client_endpoint_attempts_total"), read("wdptd_client_endpoint_failures_total")
}

// ownerIndex returns the index of the chain dataset's ring owner in
// f.members, and the next owner in failover order.
func ownerIndex(t *testing.T, f *fleet) (owner, next int) {
	t.Helper()
	owners := f.coord.Ring().Owners("chain", len(f.members))
	owner, next = -1, -1
	for i, hs := range f.members {
		switch hs.URL {
		case owners[0]:
			owner = i
		case owners[1]:
			next = i
		}
	}
	if owner < 0 || next < 0 {
		t.Fatalf("ring owners %v are not members", owners)
	}
	return owner, next
}

const proxiedQuery = "SELECT ?y0 WHERE E(?y0, ?y1)"

// TestEndpointAccountingProxy pins that a proxied query counts one attempt
// on its owner and none elsewhere.
func TestEndpointAccountingProxy(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 4})
	owner, _ := ownerIndex(t, f)
	if _, err := f.coordCl.Query(context.Background(), server.Request{Dataset: "chain", Query: proxiedQuery}); err != nil {
		t.Fatal(err)
	}
	attempts, failures := endpointCounts(t, f)
	for i, hs := range f.members {
		want := 0.0
		if i == owner {
			want = 1
		}
		if attempts[hs.URL] != want || failures[hs.URL] != 0 {
			t.Errorf("%s: attempts %v failures %v, want %v and 0", hs.URL, attempts[hs.URL], failures[hs.URL], want)
		}
	}
}

// TestEndpointAccountingScatter pins that each scatter leg counts one
// attempt on the endpoint it was assigned (round-robin over the sorted
// healthy list).
func TestEndpointAccountingScatter(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 4})
	healthy := f.coord.Peers().Healthy()
	if _, err := f.coordCl.Query(context.Background(), server.Request{Dataset: "chain", Query: unionQuery}); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{}
	for i := 0; i < 4; i++ { // unionQuery has four members
		want[healthy[i%len(healthy)]]++
	}
	attempts, failures := endpointCounts(t, f)
	for _, ep := range healthy {
		if attempts[ep] != want[ep] || failures[ep] != 0 {
			t.Errorf("%s: attempts %v failures %v, want %v and 0", ep, attempts[ep], failures[ep], want[ep])
		}
	}
}

// TestEndpointAccounting503FailsOver pins that a member answering 503
// counts a failed attempt on it, and the proxy still fails over to the next
// owner with the single node's bytes. The draining member stays healthy.
func TestEndpointAccounting503FailsOver(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 4})
	owner, next := ownerIndex(t, f)
	f.memberStatus[owner].Store(http.StatusServiceUnavailable)
	failovers := f.local.Stats().Get(obs.CtrClusterFailovers)
	req := server.Request{Dataset: "chain", Query: proxiedQuery, Parallelism: 1}
	got, want := f.bothBodies(t, req)
	if got.Status != http.StatusOK || !bytes.Equal(got.Body, want.Body) {
		t.Fatalf("failover body diverged (status %d):\n%s\nwant:\n%s", got.Status, got.Body, want.Body)
	}
	if d := f.local.Stats().Get(obs.CtrClusterFailovers) - failovers; d != 1 {
		t.Errorf("cluster.failovers rose by %d, want 1", d)
	}
	attempts, failures := endpointCounts(t, f)
	ownerURL, nextURL := f.members[owner].URL, f.members[next].URL
	if attempts[ownerURL] != 1 || failures[ownerURL] != 1 {
		t.Errorf("owner: attempts %v failures %v, want 1 and 1", attempts[ownerURL], failures[ownerURL])
	}
	if attempts[nextURL] != 1 || failures[nextURL] != 0 {
		t.Errorf("next owner: attempts %v failures %v, want 1 and 0", attempts[nextURL], failures[nextURL])
	}
	if !f.coord.Peers().IsHealthy(ownerURL) {
		t.Error("a 503 demoted the owner; draining is not a peer failure")
	}
}

// TestEndpointAccountingTransportError pins that an exchange with a dead
// member counts a failed attempt on it and demotes it.
func TestEndpointAccountingTransportError(t *testing.T) {
	f := startFleet(t, 3, chainSpecs(t), server.Config{MaxInFlight: 4})
	owner, _ := ownerIndex(t, f)
	ownerURL := f.members[owner].URL
	f.members[owner].Close()
	if _, err := f.coordCl.Query(context.Background(), server.Request{Dataset: "chain", Query: proxiedQuery}); err != nil {
		t.Fatal(err)
	}
	attempts, failures := endpointCounts(t, f)
	if attempts[ownerURL] != 1 || failures[ownerURL] != 1 {
		t.Errorf("dead owner: attempts %v failures %v, want 1 and 1", attempts[ownerURL], failures[ownerURL])
	}
	if f.coord.Peers().IsHealthy(ownerURL) {
		t.Error("dead owner still healthy")
	}
}
