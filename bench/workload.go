package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strings"

	"wdpt/internal/db"
	"wdpt/internal/gen"
	"wdpt/internal/server"
	"wdpt/internal/sparql"
)

// cacheEntries is wdptd's default result-cache size (-cache). Every stream
// states its size relative to it: the miss workloads cycle more distinct
// texts than this, hot_repeat fewer.
const cacheEntries = 256

// workloadNames lists the workloads in reporting order.
var workloadNames = []string{"enum_deep", "point_mix", "hot_repeat", "cluster_union"}

// expect is the correct outcome of a request: an answer count for the
// enumeration modes, a verdict for the decision modes.
type expect struct {
	decision bool
	count    int
	holds    bool
}

// request is one /v1/query exchange of a stream.
type request struct {
	// kind names the query kind; per-kind latency rows are keyed by it.
	kind string
	// class identifies the template class: texts of one class differ only
	// by variable renaming, so they share want.
	class string
	req   server.Request
	body  []byte
	// want is nil until fillExpectations solves the class in process; the
	// music kinds set it from the fact oracle at generation time.
	want *expect
}

// dataset is one generated database and the text file the servers load.
type dataset struct {
	name string
	db   *db.Database
	text string
}

// workload is one traffic mix: its datasets, the cycle of requests the
// callers walk, and the requests sent once during set-up.
type workload struct {
	name     string
	callers  int
	cluster  bool // coordinator + 2 members loading snapshots, else one node loading text
	datasets []dataset
	warm     []request
	stream   []request
	// traceN is how many leading stream requests the traced replay runs.
	traceN int
}

// sizes scales the datasets; quick runs use a tenth of the data.
type sizes struct {
	layeredPerLayer, musicBands, musicSmallBands int
}

var (
	fullSizes  = sizes{layeredPerLayer: 32, musicBands: 2000, musicSmallBands: 500}
	quickSizes = sizes{layeredPerLayer: 8, musicBands: 200, musicSmallBands: 50}
)

// workloadRNG derives one generator per workload from the seed, so adding
// a workload never reshuffles another's stream.
func workloadRNG(seed int64, name string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(name))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

func newDataset(name string, d *db.Database) dataset {
	return dataset{name: name, db: d, text: sparql.FormatDatabase(d)}
}

func layeredDataset(seed int64, sz sizes) dataset {
	return newDataset("layered", gen.LayeredDatabase(6, sz.layeredPerLayer, 3, seed))
}

// buildWorkload generates the named workload; it is a pure function of
// (name, seed, sz).
func buildWorkload(name string, seed int64, sz sizes) (*workload, error) {
	rng := workloadRNG(seed, name)
	switch name {
	case "enum_deep":
		w := &workload{name: name, callers: 2, traceN: 48, datasets: []dataset{layeredDataset(seed, sz)}}
		w.warm = []request{pathRequest(5, 0, "warm5"), pathRequest(4, 0, "warm4")}
		// 1024 texts, four times the cache, walked in a fixed seeded order:
		// a text returns after 1023 others, so the LRU never holds it.
		const texts = 4 * cacheEntries
		for i := 0; i < texts; i++ {
			depth := 5
			if i%5 == 4 {
				depth = 4
			}
			w.stream = append(w.stream, pathRequest(depth, rng.Intn(len(pathFree)), fmt.Sprintf("n%d_%x", i, rng.Intn(1<<16))))
		}
		rng.Shuffle(len(w.stream), func(i, j int) { w.stream[i], w.stream[j] = w.stream[j], w.stream[i] })
		return w, nil
	case "point_mix":
		music := newDataset("music", gen.MusicDatabaseLarge(sz.musicBands, 6, seed))
		w := &workload{name: name, callers: 2, traceN: 200, datasets: []dataset{music}}
		facts := newMusicFacts(music.db)
		for _, kind := range pointKinds {
			w.warm = append(w.warm, facts.pointRequest(kind.name, rng, "warm"))
		}
		// 16384 texts (64x the cache), every one unique by its variable tag.
		const texts = 64 * cacheEntries
		for i := 0; i < texts; i++ {
			w.stream = append(w.stream, facts.pointRequest(pickKind(rng), rng, fmt.Sprintf("t%d", i)))
		}
		return w, nil
	case "hot_repeat":
		music := newDataset("music", gen.MusicDatabaseLarge(sz.musicBands, 6, seed))
		w := &workload{name: name, callers: 2, traceN: 200, datasets: []dataset{layeredDataset(seed, sz), music}}
		w.warm = hotTexts(newMusicFacts(music.db), rng)
		// 64 texts, a quarter of the cache, all filled in set-up; the stream
		// draws them Zipf(1.1) by rank.
		cdf := zipfCDF(len(w.warm), 1.1)
		const draws = 1 << 16
		for i := 0; i < draws; i++ {
			w.stream = append(w.stream, w.warm[sort.SearchFloat64s(cdf, rng.Float64())])
		}
		return w, nil
	case "cluster_union":
		small := newDataset("music_s", gen.MusicDatabaseLarge(sz.musicSmallBands, 6, seed))
		w := &workload{name: name, callers: 1, cluster: true, traceN: 48, datasets: []dataset{small}}
		w.warm = []request{unionRequest("union_enum", "warm0", 0), unionRequest("union_maximal", "warm1", 1), unionRequest("single_proxied", "warm2", 0)}
		// 512 texts, twice the cache of every node they reach: 55% large
		// unions, 15% small maximal unions, 30% single trees. Sorted by
		// latency that is maximal, single, large union, so p50 and p95 both
		// fall among the large unions.
		const texts = 2 * cacheEntries
		for i := 0; i < texts; i++ {
			kind := "single_proxied"
			if r := rng.Intn(20); r < 11 {
				kind = "union_enum"
			} else if r < 14 {
				kind = "union_maximal"
			}
			w.stream = append(w.stream, unionRequest(kind, fmt.Sprintf("u%d_%x", i, rng.Intn(1<<16)), 1+rng.Intn(10)))
		}
		return w, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// newRequest finishes a request: parallelism 1 so that two callers occupy
// two cores and intra-query fan-out does not compete with them.
func newRequest(kind, class string, req server.Request, want *expect) request {
	req.Parallelism = 1
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a server.Request of strings and ints always encodes
	}
	return request{kind: kind, class: class, req: req, body: body, want: want}
}

// pathFree are the free-variable subsets of the path queries, as indexes
// into the chain's variables. All are small, so the body stays a few KB
// and band expansion stays ~all of the request.
var pathFree = [][]int{{0}, {1}, {0, 1}, {0, 2}}

// pathRequest renders gen.PathWDPT(depth) over E with variables named
// <tag>_i, in the ANS text format.
func pathRequest(depth, free int, tag string) request {
	v := func(i int) string { return fmt.Sprintf("?%s_%d", tag, i) }
	var head []string
	for _, i := range pathFree[free] {
		head = append(head, v(i))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "ANS(%s)\n", strings.Join(head, ", "))
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&b, "%s{ E(%s, %s)\n", strings.Repeat("  ", i), v(i), v(i+1))
	}
	for i := depth - 1; i >= 0; i-- {
		fmt.Fprintf(&b, "%s}\n", strings.Repeat("  ", i))
	}
	kind := fmt.Sprintf("path_d%d", depth)
	return newRequest(kind, fmt.Sprintf("%s/free%d", kind, free),
		server.Request{Dataset: "layered", Query: b.String(), Mode: "enumerate"}, nil)
}

// figure1 is the paper's Figure 1 tree over the music vocabulary, with the
// variables tagged.
func figure1(tag string, free ...string) string {
	v := func(name string) string { return "?" + name + tag }
	head := make([]string, len(free))
	for i, f := range free {
		head[i] = v(f)
	}
	return fmt.Sprintf("SELECT %s WHERE ((recorded_by(%s, %s) AND published(%s, after_2010)) OPT rating(%s, %s)) OPT formed_in(%s, %s)",
		strings.Join(head, " "), v("x"), v("y"), v("x"), v("x"), v("z"), v("y"), v("zp"))
}

// bandTree is Figure 1's tree with the band a constant and the published
// atom moved under the first OPT. The root is then the one selective atom:
// the engine materialises every row matching a root atom, and the 6000
// after_2010 rows would make a point query a 1 ms scan.
func bandTree(tag, band string) string {
	v := func(name string) string { return "?" + name + tag }
	return fmt.Sprintf("SELECT %s %s %s WHERE (recorded_by(%s, %s) OPT (published(%s, after_2010) AND rating(%s, %s))) OPT formed_in(%s, %s)",
		v("x"), v("z"), v("zp"), v("x"), band, v("x"), v("x"), v("z"), band, v("zp"))
}

// fullTreeFree are the free-variable tuples of the four full-tree bodies.
var fullTreeFree = [][]string{{"x", "y", "z", "zp"}, {"x", "y", "z"}, {"x", "y", "zp"}, {"x", "z", "zp"}}

func fullTreeRequest(i int, tag string) request {
	return newRequest("full_tree", fmt.Sprintf("full_tree/free%d", i),
		server.Request{Dataset: "music", Query: figure1(tag, fullTreeFree[i]...), Mode: "enumerate"}, nil)
}

// pointKinds is the point_mix mix in twentieths.
var pointKinds = []struct {
	name  string
	share int
}{{"band_enum", 8}, {"band_maximal", 3}, {"exact", 3}, {"partial", 3}, {"max", 3}}

func pickKind(rng *rand.Rand) string {
	r := rng.Intn(20)
	for _, k := range pointKinds {
		if r < k.share {
			return k.name
		}
		r -= k.share
	}
	panic("pointKinds shares must sum to 20")
}

// musicFacts is the fact oracle for the music datasets: what the generator
// wrote, indexed the way the expected outcomes of the point queries need
// it. It shares no code with the evaluator.
type musicFacts struct {
	bands, records []string
	recBand        map[string]string
	recAfter       map[string]bool
	recRating      map[string]string
	bandYear       map[string]string
	bandRecords    map[string]int // records per band
}

func newMusicFacts(d *db.Database) *musicFacts {
	f := &musicFacts{
		recBand: map[string]string{}, recAfter: map[string]bool{}, recRating: map[string]string{},
		bandYear: map[string]string{}, bandRecords: map[string]int{},
	}
	pairs := func(rel string, visit func(a, b string)) {
		r := d.Relation(rel)
		cols, dict := r.Columns(), r.Dict()
		for i := range cols[0] {
			visit(dict.Term(cols[0][i]), dict.Term(cols[1][i]))
		}
	}
	pairs("recorded_by", func(rec, band string) {
		if f.bandRecords[band] == 0 {
			f.bands = append(f.bands, band)
		}
		f.bandRecords[band]++
		f.recBand[rec] = band
		f.records = append(f.records, rec)
	})
	pairs("published", func(rec, when string) { f.recAfter[rec] = when == "after_2010" })
	pairs("rating", func(rec, r string) { f.recRating[rec] = r })
	pairs("formed_in", func(band, year string) { f.bandYear[band] = year })
	sort.Strings(f.bands)
	sort.Strings(f.records)
	return f
}

// answerFor returns the one answer of the Figure 1 tree that binds x to
// rec, with variables tagged; it exists iff rec was published after 2010.
func (f *musicFacts) answerFor(rec, tag string) map[string]string {
	band := f.recBand[rec]
	h := map[string]string{"x" + tag: rec, "y" + tag: band}
	if r, ok := f.recRating[rec]; ok {
		h["z"+tag] = r
	}
	if y, ok := f.bandYear[band]; ok {
		h["zp"+tag] = y
	}
	return h
}

// pointRequest draws one selective query of the given kind. Band kinds
// fix the band constant and have one answer per record of the band; the
// decision kinds carry a candidate mapping for a uniformly drawn record,
// the full answer or its (x, y) part by coin flip.
// Answers for distinct records are ⊑-incomparable, so h is a maximal answer
// exactly when it is an answer.
func (f *musicFacts) pointRequest(kind string, rng *rand.Rand, tag string) request {
	switch kind {
	case "band_enum", "band_maximal":
		band := f.bands[rng.Intn(len(f.bands))]
		mode := strings.TrimPrefix(kind, "band_")
		if mode == "enum" {
			mode = "enumerate"
		}
		return newRequest(kind, kind, server.Request{Dataset: "music", Query: bandTree(tag, band), Mode: mode},
			&expect{count: f.bandRecords[band]})
	}
	rec := f.records[rng.Intn(len(f.records))]
	full := f.answerFor(rec, tag)
	h := full
	if rng.Intn(2) == 0 {
		h = map[string]string{"x" + tag: rec, "y" + tag: f.recBand[rec]}
	}
	holds := f.recAfter[rec]
	if kind != "partial" {
		holds = holds && len(h) == len(full)
	}
	return newRequest(kind, kind, server.Request{Dataset: "music", Query: figure1(tag, "x", "y", "z", "zp"), Mode: kind, Mapping: h},
		&expect{decision: true, holds: holds})
}

// hotTexts builds the 64 hot_repeat texts in rank order. The path texts and
// the four ~0.5 MB full-tree bodies sit at fixed ranks whose Zipf shares sum
// to under 4%, so p50 and p95 both fall inside the point kinds whatever the
// seed; the point texts fill the other ranks.
func hotTexts(facts *musicFacts, rng *rand.Rand) []request {
	const n = cacheEntries / 4
	fixed := map[int]request{
		23: pathRequest(5, 0, "h0"), 33: pathRequest(5, 2, "h1"), 43: pathRequest(4, 0, "h2"), 53: pathRequest(4, 2, "h3"),
		28: fullTreeRequest(0, "f0"), 38: fullTreeRequest(1, "f1"), 48: fullTreeRequest(2, "f2"), 58: fullTreeRequest(3, "f3"),
	}
	out := make([]request, n)
	for rank := range out {
		if r, ok := fixed[rank]; ok {
			out[rank] = r
			continue
		}
		out[rank] = facts.pointRequest(pickKind(rng), rng, fmt.Sprintf("h%d", rank))
	}
	return out
}

// zipfCDF returns the cumulative distribution of Zipf(s) over ranks 1..n.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// unionRequest renders the cluster kinds over music_s. union_enum is a
// two-tree union of ~3000 answers that the coordinator scatters one leg per
// member; single_proxied is its first tree alone, proxied to the ring
// owner. union_maximal is a union whose second tree extends the answers of
// its first, so the maximal merge has answers to drop; it is cut down to
// one rating value (~250 answers) because that merge is quadratic in the
// answer count: at 3000 answers one request takes 0.6 s and a window would
// hold a few dozen of them.
func unionRequest(kind, tag string, rating int) request {
	v := func(name string) string { return "?" + name + tag }
	req := server.Request{Dataset: "music_s", Mode: "enumerate"}
	class := kind
	if kind == "union_maximal" {
		rated := fmt.Sprintf(`recorded_by(%s, %s) AND rating(%s, "%d")`, v("x"), v("y"), v("x"), rating)
		req.Mode = "maximal"
		req.Query = fmt.Sprintf("SELECT %s %s WHERE %s UNION SELECT %s %s %s WHERE (%s) OPT formed_in(%s, %s)",
			v("x"), v("y"), rated, v("x"), v("y"), v("zp"), rated, v("y"), v("zp"))
		class = fmt.Sprintf("%s/rating%d", kind, rating)
	} else {
		req.Query = fmt.Sprintf("SELECT %s %s %s WHERE (recorded_by(%s, %s) AND published(%s, after_2010)) OPT rating(%s, %s)",
			v("x"), v("y"), v("z"), v("x"), v("y"), v("x"), v("x"), v("z"))
		if kind == "union_enum" {
			req.Query += fmt.Sprintf(" UNION SELECT %s %s %s WHERE (recorded_by(%s, %s) AND published(%s, before_2010)) OPT formed_in(%s, %s)",
				v("x"), v("y"), v("zp"), v("x"), v("y"), v("x"), v("y"), v("zp"))
		}
	}
	return newRequest(kind, class, req, nil)
}
