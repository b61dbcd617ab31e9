package cluster

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"wdpt/internal/server"
)

// TestNewCoordinatorDefaultsToMemberTimeout pins the transport safety net
// on the coordinator's own client: with no CoordinatorConfig.HTTPClient,
// every member exchange is bounded by memberTimeout, never sent through the
// timeout-less http.DefaultClient.
func TestNewCoordinatorDefaultsToMemberTimeout(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chain.txt")
	if err := os.WriteFile(path, []byte("E(0, 1).\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reg, err := server.NewRegistry(map[string]string{"chain": path})
	if err != nil {
		t.Fatal(err)
	}
	local, err := server.NewServer(server.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCoordinator(CoordinatorConfig{Local: local, Peers: []string{"http://127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if c.x.hc == http.DefaultClient {
		t.Fatal("NewCoordinator must not use http.DefaultClient")
	}
	if c.x.hc.Timeout != memberTimeout {
		t.Fatalf("default member client Timeout = %v, want memberTimeout (%v)", c.x.hc.Timeout, memberTimeout)
	}
}
