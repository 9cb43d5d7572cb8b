package serving

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"pagequality/internal/search"
)

// FuzzSearchParams feeds arbitrary bytes to /search as the raw query
// string. Whatever they are, the handler does not panic, answers 200 or
// 400, takes an admission permit for exactly the requests it answers 200
// — a 400 is decided before admission — and holds none afterwards. A
// query string that is one q holding a term search.Tokenize finds is
// answered 200, so the pre-admission term check can neither pass a query
// search refuses nor refuse one it serves.
func FuzzSearchParams(f *testing.F) {
	svc := syntheticService(20, 4)
	f.Fuzz(func(t *testing.T, raw string) {
		before, _ := svc.lim.counters()
		req := httptest.NewRequest(http.MethodGet, "/search", nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		admitted, shed := svc.lim.counters()
		switch rec.Code {
		case http.StatusOK:
			if admitted != before+1 {
				t.Fatalf("%q: 200 with admitted %d -> %d", raw, before, admitted)
			}
		case http.StatusBadRequest:
			if admitted != before {
				t.Fatalf("%q: 400 moved admitted %d -> %d", raw, before, admitted)
			}
		default:
			t.Fatalf("%q: status %d: %s", raw, rec.Code, rec.Body)
		}
		if vals, err := url.ParseQuery(raw); err == nil && len(vals) == 1 && len(vals["q"]) == 1 &&
			len(search.Tokenize(vals.Get("q"))) > 0 && rec.Code != http.StatusOK {
			t.Fatalf("%q: one q with a term answered %d", raw, rec.Code)
		}
		if shed != 0 || svc.lim.inflight() != 0 {
			t.Fatalf("%q: shed %d, inflight %d after the request", raw, shed, svc.lim.inflight())
		}
	})
}
