package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wdpt/internal/server"
)

func writeDataset(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSelfcheck boots the whole daemon on an ephemeral port and runs its
// built-in end-to-end probe — the same smoke scripts/check.sh performs.
func TestSelfcheck(t *testing.T) {
	music := writeDataset(t, "music.txt", "recorded_by(Swim, Caribou).\npublished(Swim, after_2010).\n")
	chain := writeDataset(t, "chain.txt", "E(0, 1).\nE(1, 2).\n")
	var stdout, stderr strings.Builder
	code := run([]string{"-selfcheck", "-dataset", "music=" + music, "-dataset", "chain=" + chain}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "selfcheck ok (2 dataset(s)") || !strings.Contains(stdout.String(), "metrics endpoint ok)") {
		t.Fatalf("stdout = %q, want a selfcheck ok summary naming the one metrics endpoint", stdout.String())
	}
	if !strings.Contains(stdout.String(), "snapshot round-trip ok (2 dataset(s)") {
		t.Fatalf("stdout = %q, want a snapshot round-trip ok line", stdout.String())
	}
	if !strings.Contains(stdout.String(), "4 probe queries, 2 cache hit(s)") {
		t.Fatalf("stdout = %q, want each dataset's re-sent probe served from the cache", stdout.String())
	}
}

// TestSelfcheckRequiresCacheHits pins the hit-path probe: against a server
// whose cache serves no hits, a selfcheck that expects them fails, naming
// the counter; one that does not expect them passes.
func TestSelfcheckRequiresCacheHits(t *testing.T) {
	reg, err := server.NewRegistry(map[string]string{"chain": writeDataset(t, "chain.txt", "E(0, 1).\nE(1, 2).\n")})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.NewServer(server.Config{Registry: reg, CacheSize: 0})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	var stdout strings.Builder
	err = selfCheck(hs.URL, &stdout, "", true)
	if err == nil || !strings.Contains(err.Error(), "wdpt_server_cache_hits_total") {
		t.Fatalf("selfCheck = %v, want a cache-hit failure", err)
	}
	if err := selfCheck(hs.URL, &stdout, "", false); err != nil {
		t.Fatalf("selfCheck without expected hits: %v", err)
	}
}

func TestSelfcheckFailsOnBrokenDataset(t *testing.T) {
	bad := writeDataset(t, "bad.txt", "not a database(\n")
	var stdout, stderr strings.Builder
	if code := run([]string{"-selfcheck", "-dataset", "bad=" + bad}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit code %d, want 2 (registry must refuse to start)", code)
	}
	if !strings.Contains(stderr.String(), `dataset "bad"`) {
		t.Fatalf("stderr = %q, want the dataset named", stderr.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no datasets: exit %d, want 2", code)
	}
	if code := run([]string{"-dataset", "nameonly"}, &stdout, &stderr); code != 2 {
		t.Fatalf("malformed -dataset: exit %d, want 2", code)
	}
	if code := run([]string{"-dataset", "d=a.txt", "-dataset", "d=b.txt"}, &stdout, &stderr); code != 2 {
		t.Fatalf("duplicate -dataset: exit %d, want 2", code)
	}
}
