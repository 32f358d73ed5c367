package server

import (
	"net/http"
	"testing"
)

// TestReadyzGating pins the readiness contract: New replays recovered
// state before it returns, so /healthz (liveness) and /readyz answer 200
// from the first request, and /readyz turns 503 only for a store that
// failed stop (internal/store's failstop_server_test.go).
func TestReadyzGating(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		if code, raw := doRaw(t, http.MethodGet, ts.URL+path, "", nil); code != http.StatusOK {
			t.Fatalf("%s = %d %s", path, code, raw)
		}
	}
	if code, raw := doRaw(t, http.MethodPut, ts.URL+"/v1/datasets/d", "e(1, 2).", nil); code != http.StatusOK {
		t.Fatalf("PUT = %d %s", code, raw)
	}
}
