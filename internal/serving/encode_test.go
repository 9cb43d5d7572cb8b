package serving

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"pagequality/internal/search"
	"pagequality/internal/webcorpus"
)

// hitJSON is one search result as the API renders it: the struct whose
// json.Encoder output encodeHits reproduces without reflection.
type hitJSON struct {
	URL       string  `json:"url"`
	Score     float64 `json:"score"`
	Relevance float64 `json:"relevance"`
	Quality   float64 `json:"quality"`
	PageRank  float64 `json:"pagerank"`
}

// encodeReference is the body /search served before the append encoder:
// json.Encoder over the hits as []hitJSON.
func encodeReference(g *Generation, hits []search.Hit) ([]byte, error) {
	out := make([]hitJSON, 0, len(hits))
	for _, h := range hits {
		out = append(out, hitJSON{g.urls[h.Doc], h.Score, h.Relevance, g.qual[h.Doc], g.pr[h.Doc]})
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(out)
	return buf.Bytes(), err
}

// FuzzEncodeHits: for one document and arbitrary URL and scores,
// encodeHits writes exactly json.Encoder's bytes for one and for two hits
// — or fails, exactly when json.Encoder fails. A non-finite quality or
// PageRank fails the generation itself, so a refresh keeps the one
// serving instead of answering 500 to every query that ranks the page.
// A body has no spare capacity.
func FuzzEncodeHits(f *testing.F) {
	ix := search.NewIndex()
	ix.Add("doc")
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	f.Fuzz(func(t *testing.T, url string, score, relevance, quality, pagerank float64) {
		g, genErr := newGeneration(1, ix, []string{url}, []float64{quality}, []float64{pagerank})
		if (genErr == nil) != (finite(quality) && finite(pagerank)) {
			t.Fatalf("quality %v, pagerank %v: newGeneration error %v", quality, pagerank, genErr)
		}
		row := hitJSON{url, score, relevance, quality, pagerank}
		hit := search.Hit{Doc: 0, Score: score, Relevance: relevance}
		for _, rows := range [][]hitJSON{{row}, {row, row}} {
			var want bytes.Buffer
			wantErr := json.NewEncoder(&want).Encode(rows)
			got, err := []byte(nil), genErr
			if g != nil {
				got, err = g.encodeHits([]search.Hit{hit, hit}[:len(rows)])
			}
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("%d hits %+v: error %v, json.Encoder error %v", len(rows), row, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%d hits %+v:\n got %q\nwant %q", len(rows), row, got, want.Bytes())
			}
			if cap(got) != len(got) {
				t.Fatalf("%d hits: body of %d bytes has capacity %d", len(rows), len(got), cap(got))
			}
		}
	})
}

// TestSearchBodiesMatchEncoder serves every rank mode at several k on the
// crawl fixture, including a k past the corpus and a query with no hit,
// and holds each /search body to json.Encoder's rendering of the same
// hits, byte for byte. Each body is length-framed, not chunked.
func TestSearchBodiesMatchEncoder(t *testing.T) {
	svc, err := New(fixtureConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	defer ts.Close()
	g := svc.Generation()

	queries := []string{
		webcorpus.SiteTopic(0),
		webcorpus.SiteTopic(1) + "3 common7 common12 " + webcorpus.SiteTopic(2),
		"common1 common2 common3 common4 common5 common6 common7 common8 " + webcorpus.SiteTopic(3) + "5",
		"zzzz",
	}
	bodies := 0
	for _, q := range queries {
		for _, k := range []int{1, 10, 50, 1000} {
			for rank, authority := range map[string][]float64{"quality": g.qual, "pagerank": g.pr, "relevance": nil} {
				resp, err := httpGet(ts.Client(), fmt.Sprintf("%s/search?q=%s&k=%d&rank=%s", ts.URL, url.QueryEscape(q), k, rank))
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("q=%q k=%d rank=%s: status %d, %v", q, k, rank, resp.StatusCode, err)
				}
				if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
					t.Fatalf("q=%q k=%d rank=%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body",
						q, k, rank, resp.ContentLength, resp.TransferEncoding, len(body))
				}
				opts := search.Options{TopK: min(k, g.NumDocs()), Authority: authority}
				if authority != nil {
					opts.AuthorityWeight = 0.7
				}
				hits, err := g.ix.Search(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := encodeReference(g, hits)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(body, want) {
					t.Fatalf("q=%q k=%d rank=%s: body differs from json.Encoder's\n got %s\nwant %s", q, k, rank, body, want)
				}
				if len(hits) > 0 {
					bodies++
				}
			}
		}
	}
	if bodies < 3*3*4 {
		t.Fatalf("only %d bodies carried hits", bodies)
	}
}
