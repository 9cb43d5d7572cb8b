package serving

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"unicode"

	"pagequality/internal/search"
)

// FuzzSearchParams feeds arbitrary bytes to /search as the raw query
// string. Whatever they are, the handler does not panic, answers 200 or
// 400, takes an admission permit for exactly the requests it answers 200
// — a 400 is decided before admission — and holds none afterwards.
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
		if shed != 0 || svc.lim.inflight() != 0 {
			t.Fatalf("%q: shed %d, inflight %d after the request", raw, shed, svc.lim.inflight())
		}
	})
}

// TestTermRuneMatchesTokenizer: serveSearch refuses a query with no term
// before admission by scanning for isTermRune instead of tokenizing. That
// is only sound while the two agree on every rune.
func TestTermRuneMatchesTokenizer(t *testing.T) {
	for r := rune(0); r <= unicode.MaxRune; r++ {
		if got, want := isTermRune(r), len(search.Tokenize(string(r))) > 0; got != want {
			t.Fatalf("%U: isTermRune %v, Tokenize finds a term: %v", r, got, want)
		}
	}
}
