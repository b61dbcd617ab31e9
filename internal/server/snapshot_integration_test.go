// Integration tests for the registry's durable-snapshot persistence: the
// /admin/snapshot endpoint, snapshot-preferred hot reloads racing in-flight
// queries, and quarantine of corrupt snapshot files. Everything goes through
// the real HTTP stack like integration_test.go.
package server_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"wdpt/internal/gen"
	"wdpt/internal/obs"
	"wdpt/internal/server"
	"wdpt/internal/server/client"
)

// startSnapshotServer builds a registry with snapshot persistence in a fresh
// temp dir, a server sharing its stats sink, and a client — the -snapshot-dir
// wiring of cmd/wdptd reproduced in-process.
func startSnapshotServer(t *testing.T, specs map[string]string) (string, *obs.Stats, *server.Registry, *client.Client, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	st := obs.NewStats()
	reg, err := server.NewRegistryWithConfig(server.RegistryConfig{
		Specs:       specs,
		SnapshotDir: dir,
		Stats:       st,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Admission room for the four racing clients of the reload test: at
	// the defaults (MaxInFlight = NumCPU, no queue) a client could be
	// refused with queue_full, which the test would count as a parity break.
	srv, err := server.NewServer(server.Config{Registry: reg, Stats: st, MaxInFlight: 4, MaxQueue: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	return dir, st, reg, client.New(hs.URL, hs.Client()), hs
}

// TestAdminSnapshotRequiresDir pins the 400 contract: without a snapshot
// directory, POST /admin/snapshot refuses with the typed no_snapshot_dir
// payload instead of writing anywhere.
func TestAdminSnapshotRequiresDir(t *testing.T) {
	_, d, _, _ := musicFixture(t)
	_, cl, _ := startServer(t, server.Config{}, map[string]string{"music": writeDataset(t, d)})
	_, err := cl.Snapshot(context.Background())
	if err == nil || !strings.Contains(err.Error(), "no_snapshot_dir") {
		t.Fatalf("Snapshot without a dir: err %v, want the no_snapshot_dir payload", err)
	}
}

// TestAdminSnapshotPersistsAndReloadPrefersIt drives the full persistence
// cycle over HTTP: save snapshots, hot-reload while queries are in flight,
// and require the swapped-in snapshot-backed datasets to serve byte-identical
// bodies — with no goroutine leaks once the racing clients drain.
func TestAdminSnapshotPersistsAndReloadPrefersIt(t *testing.T) {
	_, d, queryText, _ := musicFixture(t)
	dir, st, reg, cl, hs := startSnapshotServer(t, map[string]string{"music": writeDataset(t, d)})
	ctx := context.Background()
	req := server.Request{Dataset: "music", Query: queryText, Parallelism: 1}

	// Warm baseline: the text-parsed dataset's exact body bytes.
	baseline, err := cl.Query(ctx, req)
	if err != nil || baseline.Status != http.StatusOK {
		t.Fatalf("baseline query: %v (status %d)", err, baseline.Status)
	}
	if ds, _ := reg.Get("music"); ds.Source != "text" {
		t.Fatalf("initial source %q, want text (no snapshot on disk yet)", ds.Source)
	}

	res, err := cl.Snapshot(ctx)
	if err != nil {
		t.Fatalf("POST /admin/snapshot: %v", err)
	}
	if res.Version != 1 || len(res.Files) != 1 || res.Files[0] != "music.snap" {
		t.Fatalf("snapshot result %+v, want version 1 and [music.snap]", res)
	}
	if _, err := os.Stat(filepath.Join(dir, "music.snap")); err != nil {
		t.Fatalf("written snapshot file: %v", err)
	}

	// Hot-reload with queries in flight: the registry swaps to the
	// snapshot-backed generation while racing clients keep reading the old
	// one — every response must be one of the two consistent bodies (here
	// identical by the parity contract).
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				qr, err := cl.Query(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(qr.Body, baseline.Body) {
					errs <- &parityError{got: qr.Body, want: baseline.Body}
					return
				}
			}
		}()
	}
	version, err := cl.Reload(ctx)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("in-flight query during reload: %v", err)
	}
	if version != 2 {
		t.Fatalf("reloaded version %d, want 2", version)
	}
	ds, _ := reg.Get("music")
	if ds.Source != "snapshot" {
		t.Fatalf("post-reload source %q, want snapshot", ds.Source)
	}
	snap := st.Snapshot()
	if snap["server.snapshot_writes"] != 1 || snap["server.snapshot_loads"] != 1 {
		t.Fatalf("counters writes=%d loads=%d, want 1/1",
			snap["server.snapshot_writes"], snap["server.snapshot_loads"])
	}

	// The snapshot-backed dataset serves byte-identical bodies.
	after, err := cl.Query(ctx, req)
	if err != nil || after.Status != http.StatusOK {
		t.Fatalf("post-reload query: %v (status %d)", err, after.Status)
	}
	if !bytes.Equal(after.Body, baseline.Body) {
		t.Fatalf("snapshot-backed body differs from text-backed body:\n%s\nvs\n%s", after.Body, baseline.Body)
	}
	hs.Client().CloseIdleConnections()
	waitGoroutines(t, base)
}

// parityError reports a body mismatch from a racing worker.
type parityError struct{ got, want []byte }

func (e *parityError) Error() string {
	return "response body diverged during reload:\n" + string(e.got) + "\nvs baseline\n" + string(e.want)
}

// TestSnapshotQuarantine pins the corruption path: a damaged snapshot file
// is counted, moved aside as *.snap.quarantined, and the dataset falls back
// to parsing its text source — corrupt bytes are never served.
func TestSnapshotQuarantine(t *testing.T) {
	_, d, queryText, _ := musicFixture(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "music.snap"), []byte("WDPTSNAPgarbage-not-a-snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := obs.NewStats()
	reg, err := server.NewRegistryWithConfig(server.RegistryConfig{
		Specs:       map[string]string{"music": writeDataset(t, d)},
		SnapshotDir: dir,
		Stats:       st,
	})
	if err != nil {
		t.Fatalf("registry with a corrupt snapshot must fall back to text: %v", err)
	}
	ds, _ := reg.Get("music")
	if ds.Source != "text" {
		t.Fatalf("source %q, want text fallback", ds.Source)
	}
	if got := st.Snapshot()["server.snapshot_quarantined"]; got != 1 {
		t.Fatalf("server.snapshot_quarantined = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "music.snap.quarantined")); err != nil {
		t.Fatalf("quarantined file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "music.snap")); !os.IsNotExist(err) {
		t.Fatalf("corrupt music.snap still in place (err %v), want it moved aside", err)
	}
	// The fallback dataset still answers.
	srv, err := server.NewServer(server.Config{Registry: reg, Stats: st})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	cl := client.New(hs.URL, hs.Client())
	qr, err := cl.Query(context.Background(), server.Request{Dataset: "music", Query: queryText, Parallelism: 1})
	if err != nil || qr.Status != http.StatusOK {
		t.Fatalf("query after quarantine: %v (status %d)", err, qr.Status)
	}
}

// TestSnapshotRoundTripLargeDataset saves and reloads a bigger generated
// dataset end to end over HTTP and pins that the snapshot-backed generation
// lists the same shape (atoms, dictionary size, relations) as the text one.
func TestSnapshotRoundTripLargeDataset(t *testing.T) {
	d := gen.MusicDatabaseLarge(50, 6, 7)
	_, _, reg, cl, _ := startSnapshotServer(t, map[string]string{"big": writeDataset(t, d)})
	ctx := context.Background()
	before, _ := reg.Get("big")
	if _, err := cl.Snapshot(ctx); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if _, err := cl.Reload(ctx); err != nil {
		t.Fatalf("reload: %v", err)
	}
	after, _ := reg.Get("big")
	if after.Source != "snapshot" {
		t.Fatalf("source %q, want snapshot", after.Source)
	}
	if after.Atoms != before.Atoms || after.DictTerms != before.DictTerms || len(after.Relations) != len(before.Relations) {
		t.Fatalf("shape changed across the snapshot round-trip: %+v vs %+v", after, before)
	}
}
