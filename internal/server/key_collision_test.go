package server_test

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"wdpt/internal/cq"
	"wdpt/internal/db"
	"wdpt/internal/server"
	"wdpt/internal/server/client"
)

// HTTP-level regressions for the separator-joined keys (see
// internal/cq/key_test.go): constants and request-supplied mapping values
// holding "\x00", "=" or "?" arrive through the dataset file and the JSON
// body like any other bytes.

const optQuery = "SELECT ?x ?y WHERE R(?x) OPT S(?x, ?y)"

// serveFacts serves one dataset "d" holding the given facts (relation name
// first), with the result cache on.
func serveFacts(t *testing.T, facts ...[]string) *client.Client {
	t.Helper()
	d := db.New()
	for _, f := range facts {
		d.Insert(f[0], f[1:]...)
	}
	_, cl, _ := startServer(t, server.Config{MaxInFlight: 4, CacheSize: 16}, map[string]string{"d": writeDataset(t, d)})
	return cl
}

// decide posts one decision request and returns its body and verdict.
func decide(t *testing.T, cl *client.Client, req server.Request) ([]byte, bool) {
	t.Helper()
	res, err := cl.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || res.Report == nil || res.Report.Result == nil {
		t.Fatalf("status %d, want 200 with a verdict (body %s)", res.Status, res.Body)
	}
	return res.Body, *res.Report.Result
}

// TestServerServesCollidingAnswers: Definition 2 asks for a set of
// mappings; the two answers here shared a Mapping.Key and one was dropped.
func TestServerServesCollidingAnswers(t *testing.T) {
	cl := serveFacts(t, []string{"R", "a\x00y=b"}, []string{"R", "a"}, []string{"S", "a", "b"})
	want := []cq.Mapping{{"x": "a", "y": "b"}, {"x": "a\x00y=b"}}
	for _, mode := range []string{"enumerate", "maximal"} {
		res, err := cl.Query(context.Background(), server.Request{Dataset: "d", Query: optQuery, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if res.Report == nil || len(res.Report.Answers) != 2 ||
			!res.Report.Answers[0].Equal(want[0]) || !res.Report.Answers[1].Equal(want[1]) {
			t.Errorf("%s: body %s, want the answers %v", mode, res.Body, want)
		}
	}
}

// TestServerCacheKeepsCollidingMappingsApart: two partial requests that
// differ only in the candidate mapping shared a result-cache entry, so the
// second was served the first's body — here the opposite verdict.
func TestServerCacheKeepsCollidingMappingsApart(t *testing.T) {
	cl := serveFacts(t, []string{"R", "a\x00y=b"}, []string{"R", "a"}, []string{"S", "a", "c"})
	yesBody, yes := decide(t, cl, server.Request{Dataset: "d", Query: optQuery, Mode: "partial",
		Mapping: map[string]string{"x": "a\x00y=b"}})
	noBody, no := decide(t, cl, server.Request{Dataset: "d", Query: optQuery, Mode: "partial",
		Mapping: map[string]string{"x": "a", "y": "b"}})
	if !yes || no || bytes.Equal(yesBody, noBody) {
		t.Errorf("partial verdicts = %v then %v, want true then false\nfirst:  %s\nsecond: %s", yes, no, yesBody, noBody)
	}
	if hits := scrape(t, cl)["wdpt_server_cache_hits_total"]; hits != 0 {
		t.Errorf("server.cache_hits = %d, want 0: the second request does not repeat the first", hits)
	}
}

// TestServerKeepsCollidingInstantiatedAtoms: under the request's mapping
// the two atoms instantiate to R(?x, "a\x00=b", c) and R(?x, a, "b\x00=c"),
// which shared an Atom.Key; DedupAtoms dropped the second and the mapping
// was accepted.
func TestServerKeepsCollidingInstantiatedAtoms(t *testing.T) {
	cl := serveFacts(t, []string{"R", "k", "a\x00=b", "c"})
	for _, mode := range []string{"exact", "partial", "max"} {
		body, holds := decide(t, cl, server.Request{Dataset: "d", Mode: mode,
			Query:   "SELECT ?u ?v ?s ?t WHERE R(?x, ?u, ?v) AND R(?x, ?s, ?t)",
			Mapping: map[string]string{"u": "a\x00=b", "v": "c", "s": "a", "t": "b\x00=c"}})
		if holds {
			t.Errorf("%s: mapping accepted although R(k, a, \"b\\x00=c\") is not in the dataset: %s", mode, body)
		}
	}
}

// TestServerRejectsTwiceNamedVariable: "?x" and "x" name one variable, so
// the mapping is ambiguous. Its verdict used to depend on map iteration
// order; now every send gets the same 400 naming the least such variable,
// and nothing reaches the cache.
func TestServerRejectsTwiceNamedVariable(t *testing.T) {
	cl := serveFacts(t, []string{"R", "Swim"}, []string{"S", "Swim", "b"})
	req := server.Request{Dataset: "d", Query: optQuery, Mode: "partial",
		Mapping: map[string]string{"?y": "b", "y": "c", "?x": "Swim", "x": "Nope"}}
	var first []byte
	for i := 0; i < 60; i++ {
		res, err := cl.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != http.StatusBadRequest || !bytes.Contains(res.Body, []byte(`"bad_request"`)) ||
			!bytes.Contains(res.Body, []byte(`variable \"x\" is named twice`)) {
			t.Fatalf("send %d: status %d body %s, want 400 bad_request naming x", i, res.Status, res.Body)
		}
		if first == nil {
			first = res.Body
		} else if !bytes.Equal(res.Body, first) {
			t.Fatalf("send %d: body %s differs from the first %s", i, res.Body, first)
		}
	}
	if hits := scrape(t, cl)["wdpt_server_cache_hits_total"]; hits != 0 {
		t.Errorf("server.cache_hits = %d, want 0", hits)
	}
}
