package serving

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"reflect"
	"testing"

	"pagequality/internal/corpus"
	"pagequality/internal/crawler"
	"pagequality/internal/pagerank"
	"pagequality/internal/pagestore"
	"pagequality/internal/search"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
)

// TestLoadGenerationMatchesSerialBuild holds LoadGeneration — prefixed
// corpus pass, early-exit canonical, tokenizer in the map phase — to the
// build it replaced: walk the label's keys in
// order, take ExtractLinks' canonical, Add the whole body. Same URL
// table, same index statistics, and bit-equal hits for every rank mode,
// on a three-label archive re-homed into many small segments with one
// non-ASCII body (which takes the tokenizer's fallback path).
func TestLoadGenerationMatchesSerialBuild(t *testing.T) {
	storePath, srcDir := buildFixture(t)
	src, err := pagestore.Open(srcDir, pagestore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	archiveDir := t.TempDir()
	arch, err := pagestore.Open(archiveDir, pagestore.Options{MaxSegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer arch.Close()
	accented := false
	for _, k := range archiveKeys(t, src, "") {
		meta, body, err := src.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if label, _, _ := corpus.SplitKey(k); label == "t3" && !accented {
			body = bytes.Replace(body, []byte("</body>"), []byte("<p>Café İstanbul ÉCOLE naïve</p></body>"), 1)
			accented = true
		}
		if err := arch.Put(k, meta, body); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(arch.SegmentIDs()); n < 4 {
		t.Fatalf("archive spans only %d segments", n)
	}

	// The serial build.
	snaps, err := snapshot.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	common := make(map[string]bool, len(al.URLs))
	for _, u := range al.URLs {
		common[u] = true
	}
	want := search.NewIndex()
	var wantURLs []string
	for _, k := range archiveKeys(t, arch, "t3/") {
		_, body, err := arch.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		_, canonical := crawler.ExtractLinks(string(body))
		if canonical == "" {
			_, canonical, _ = corpus.SplitKey(k)
		}
		if common[canonical] {
			want.Add(string(body))
			wantURLs = append(wantURLs, canonical)
		}
	}

	queries := []string{
		webcorpus.SiteTopic(0), webcorpus.SiteTopic(1) + " " + webcorpus.SiteTopic(2),
		"href li a html", "site000 example page", "café", "CAFÉ istanbul", "i̇stanbul école", "naïve nosuchterm", "zzzz",
	}
	g, err := LoadGeneration(Config{StorePath: storePath, ArchiveDir: archiveDir, Snaps: 3, Quality: defaultQCfg()}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.urls, wantURLs) {
		t.Fatalf("URL table differs: %d urls, want %d", len(g.urls), len(wantURLs))
	}
	if g.ix.NumDocs() != want.NumDocs() || g.ix.NumTerms() != want.NumTerms() {
		t.Fatalf("%d docs / %d terms, want %d / %d", g.ix.NumDocs(), g.ix.NumTerms(), want.NumDocs(), want.NumTerms())
	}
	for _, q := range queries {
		for rank, authority := range map[string][]float64{"quality": g.qual, "pagerank": g.pr, "relevance": nil} {
			opts := search.Options{TopK: 25, Authority: authority}
			if authority != nil {
				opts.AuthorityWeight = 0.7
			}
			wantHits, err := want.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := g.ix.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("q=%q rank=%s", q, rank)
			if len(got) != len(wantHits) {
				t.Fatalf("%s: %d hits, want %d", label, len(got), len(wantHits))
			}
			for i := range got {
				if got[i].Doc != wantHits[i].Doc ||
					math.Float64bits(got[i].Score) != math.Float64bits(wantHits[i].Score) ||
					math.Float64bits(got[i].Relevance) != math.Float64bits(wantHits[i].Relevance) {
					t.Fatalf("%s: hit %d = %+v, want %+v", label, i, got[i], wantHits[i])
				}
			}
		}
	}
	if hits, err := g.ix.Search("café", search.Options{}); err != nil || len(hits) != 1 {
		t.Fatalf("the accented body is not served: %d hits, err %v", len(hits), err)
	}
}

// TestPageRankSeriesIsColdCompute holds the PageRank series a
// generation serves from to one cold pagerank.Compute per aligned crawl
// of the serving fixture, bit for bit.
func TestPageRankSeriesIsColdCompute(t *testing.T) {
	storePath, _ := buildFixture(t)
	snaps, err := snapshot.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	al, err := snapshot.Align(snaps)
	if err != nil {
		t.Fatal(err)
	}
	series, err := al.PageRankSeries()
	if err != nil {
		t.Fatal(err)
	}
	for k, csr := range al.CSRs() {
		cold, err := pagerank.Compute(csr, pagerank.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range cold.Rank {
			if math.Float64bits(series[k][i]) != math.Float64bits(v) {
				t.Fatalf("crawl %s rank[%d] = %g, cold Compute gives %g", al.Labels[k], i, series[k][i], v)
			}
		}
	}
}

// TestLoadGenerationBitsPinned holds a generation built on the serving
// fixture to the exact bits it had before the snapshot decoder, Align's
// subgraph and graph.Diff stopped building their graphs one AddLink at a
// time: the served URLs, and the Float64bits of every quality and
// PageRank score. The CRCs were captured at that parent commit.
func TestLoadGenerationBitsPinned(t *testing.T) {
	g, err := LoadGeneration(fixtureConfig(t), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	urls := crc32.NewIEEE()
	for _, u := range g.urls {
		urls.Write(append([]byte(u), 0))
	}
	bits := func(v []float64) uint32 {
		h := crc32.NewIEEE()
		for _, x := range v {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(x)))
		}
		return h.Sum32()
	}
	const wantDocs = 101
	const wantURLs, wantQual, wantPR uint32 = 0x2731c211, 0xd8616bf9, 0xf8d6d55d
	if len(g.urls) != wantDocs || urls.Sum32() != wantURLs || bits(g.qual) != wantQual || bits(g.pr) != wantPR {
		t.Errorf("%d docs, crc urls %#08x qual %#08x pr %#08x; want %d, %#08x, %#08x, %#08x",
			len(g.urls), urls.Sum32(), bits(g.qual), bits(g.pr), wantDocs, wantURLs, wantQual, wantPR)
	}
}
