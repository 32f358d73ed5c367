package store_test

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
)

// TestFailedStopServesReads: once a sync fails, sqod answers every write
// with 500 store_error and /readyz with 503, while queries and /healthz
// go on; a restart recovers from disk and is ready and writable again.
func TestFailedStopServesReads(t *testing.T) {
	dir := t.TempDir()
	st, rec, err := store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	h := newServerOn(st, rec).Handler()
	do := func(method, path, body string) (int, string) {
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}
	if code, body := do(http.MethodPut, "/v1/datasets/g", "e(1, 2). e(2, 3)."); code != http.StatusOK {
		t.Fatalf("dataset put: %d %s", code, body)
	}
	store.FailSyncs(st, errors.New("input/output error"))
	for i := 0; i < 2; i++ {
		if code, body := do(http.MethodPost, "/v1/datasets/g/facts", "e(3, 4)."); code != http.StatusInternalServerError || !strings.Contains(body, `"store_error"`) {
			t.Fatalf("write %d on a failed store: %d %s, want 500 store_error", i, code, body)
		}
	}
	query := `{"program": "p(X, Y) :- e(X, Y). ?- p.", "dataset": "g"}`
	if code, body := do(http.MethodPost, "/v1/query", query); code != http.StatusOK || !strings.Contains(body, `"answer_count": 2`) {
		t.Fatalf("query on a failed store: %d %s", code, body)
	}
	if code, body := do(http.MethodGet, "/readyz", ""); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz on a failed store: %d %s, want 503", code, body)
	}
	if code, _ := do(http.MethodGet, "/healthz", ""); code != http.StatusOK {
		t.Fatalf("/healthz on a failed store: %d", code)
	}
	st.Close()

	st, rec, err = store.Open(dir, store.Options{Fsync: store.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h = newServerOn(st, rec).Handler()
	if code, body := do(http.MethodGet, "/readyz", ""); code != http.StatusOK {
		t.Fatalf("/readyz after a restart: %d %s", code, body)
	}
	if code, body := do(http.MethodPost, "/v1/datasets/g/facts", "e(5, 6)."); code != http.StatusOK {
		t.Fatalf("write after a restart: %d %s", code, body)
	}
}
