package server_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/server"
)

// Handler allocation ceilings for POST /v1/query, measured around
// Server.ServeHTTP with the request and the recorder built inside the
// measured closure. Each ceiling is the measured value plus at most 10 %
// headroom (go1.24, linux/amd64); a change may lower a ceiling but must
// never raise one. Readings the ceilings were set from: hit 53 and 41,
// miss 281 and 1428 (-race reads at most 2 and 22 more); since the
// enumeration prepares each extension unit once per Solve, miss 270 and
// 820 (273 and 822 under -race). band_maximal read hit 41, miss 1046
// (43 and 1048 under -race) when it was added, while maximal requests ran
// the engine-less backtracking arm; on the request's engine, miss 835 (838).
// Since each unit is prepared once per chain of nodes, band_enumerate and
// band_maximal miss 755 and 765 (758 and 768 under -race). Since expansion
// runs on ID rows and decodes each answer once, 733 and 743 (735 and 745).
// Since a subtree is a comparable bitset, figure1_exact, band_enumerate and
// band_maximal miss 267, 712 and 722 (270, 714 and 724 under -race).
// path_d5 (an enum_deep request over gen.LayeredDatabase(6, 32, 3, 1))
// read hit 42 and miss 6 076 (44 and 7 124 under -race) when it was
// added; its miss ceiling is the -race reading plus 9.5 %. Since
// enumeration answers are encoded from ID rows into a pooled buffer,
// figure1_exact, band_enumerate, band_maximal and path_d5 miss 249, 570,
// 584 and 4 038 (256, 607, 616 and 5 132 under -race), and their miss
// ceilings were lowered.

// figure1Query is Figure 1's tree over the variables x, y, z, zp.
const figure1Query = "SELECT ?x ?y ?z ?zp WHERE ((recorded_by(?x, ?y) AND published(?x, after_2010)) OPT rating(?x, ?z)) OPT formed_in(?y, ?zp)"

// allocBand is Figure 1's tree with the band a constant: one answer per
// record of band7.
const allocBand = "SELECT ?x ?z ?zp WHERE (recorded_by(?x, band7) OPT (published(?x, after_2010) AND rating(?x, ?z))) OPT formed_in(band7, ?zp)"

// allocPathD5 is an enum_deep request: gen.PathWDPT(5) over E with free
// y0 and y2.
const allocPathD5 = "ANS(?y0, ?y2)\n{ E(?y0, ?y1)\n  { E(?y1, ?y2)\n    { E(?y2, ?y3)\n      { E(?y3, ?y4)\n        { E(?y4, ?y5)\n        }\n      }\n    }\n  }\n}\n"

// allocCases are the measured requests with their hit and miss ceilings.
var allocCases = []struct {
	name            string
	req             server.Request
	hitMax, missMax float64
}{
	{"figure1_exact", server.Request{Dataset: "music", Query: figure1Query, Mode: "exact", Parallelism: 1,
		Mapping: map[string]string{"x": "rec7_0", "y": "band7"}}, 58, 281},
	{"band_enumerate", server.Request{Dataset: "music", Query: allocBand, Mode: "enumerate", Parallelism: 1}, 45, 667},
	{"band_maximal", server.Request{Dataset: "music", Query: allocBand, Mode: "maximal", Parallelism: 1}, 45, 677},
	{"path_d5", server.Request{Dataset: "layered", Query: allocPathD5, Mode: "enumerate", Parallelism: 1}, 45, 5640},
}

// serveAllocs returns the average allocations of one ServeHTTP call for
// body, failing the test unless every call served 200.
func serveAllocs(t *testing.T, srv *server.Server, body string) float64 {
	t.Helper()
	bad := 0
	allocs := testing.AllocsPerRun(50, func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", strings.NewReader(body)))
		if w.Code != http.StatusOK {
			bad = w.Code
		}
	})
	if bad != 0 {
		t.Fatalf("a measured request served %d, want 200", bad)
	}
	return allocs
}

func TestQueryHandlerAllocationCeilings(t *testing.T) {
	specs := map[string]string{
		"music":   writeDataset(t, gen.MusicDatabaseLarge(2000, 6, 1)),
		"layered": writeDataset(t, gen.LayeredDatabase(6, 32, 3, 1)),
	}
	newServer := func(cacheSize int) *server.Server {
		return newTestServer(t, server.Config{MaxInFlight: 4, CacheSize: cacheSize}, specs)
	}
	for _, tc := range allocCases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.req)
			if err != nil {
				t.Fatal(err)
			}
			body := string(raw)

			hitSrv := newServer(256)
			serveAllocs(t, hitSrv, body) // warm the cache
			hit := serveAllocs(t, hitSrv, body)
			if hits := hitSrv.Stats().Get(obs.CtrServerCacheHits); hits == 0 {
				t.Fatal("the hit server served no cache hit")
			}
			miss := serveAllocs(t, newServer(0), body)
			t.Logf("hit %.0f allocs (ceiling %.0f), miss %.0f allocs (ceiling %.0f)", hit, tc.hitMax, miss, tc.missMax)
			if hit > tc.hitMax {
				t.Errorf("cache hit: %.0f allocs per request, ceiling %.0f", hit, tc.hitMax)
			}
			if miss > tc.missMax {
				t.Errorf("cache miss: %.0f allocs per request, ceiling %.0f", miss, tc.missMax)
			}
		})
	}
}
