package webcorpus

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"pagequality/internal/graph"
)

// This file synthesises page text for the search-engine substrate. Each
// site is assigned a topic; a page's text mixes its site's topic
// vocabulary with a global background vocabulary, so topical queries
// retrieve pages from a handful of sites — mirroring how real keyword
// queries define a relevant set that the quality metric then ranks
// (Section 4's relevance-versus-quality discussion).

// topics is the pool of topic names sites draw from (round-robin).
var topics = []string{
	"astronomy", "databases", "cycling", "cooking", "gardening",
	"photography", "sailing", "chess", "volcanoes", "typography",
	"cryptography", "orchids", "meteorology", "railways", "beekeeping",
	"calligraphy", "robotics", "genomics", "economics", "linguistics",
}

// topicVocabSize is how many distinct topic words each topic has.
const topicVocabSize = 40

// backgroundVocabSize is the size of the shared background vocabulary.
const backgroundVocabSize = 400

// topicWords[t*topicVocabSize+w] is the w-th word of topic t's
// vocabulary, e.g. "astronomy17"; backgroundWords[w] is the w-th
// background word, e.g. "common123". Built once: page text is generated
// on the tick hot path.
var topicWords, backgroundWords = func() (tw, bw []string) {
	for _, topic := range topics {
		for w := 0; w < topicVocabSize; w++ {
			tw = append(tw, topic+strconv.Itoa(w))
		}
	}
	for w := 0; w < backgroundVocabSize; w++ {
		bw = append(bw, "common"+strconv.Itoa(w))
	}
	return tw, bw
}()

// SiteTopic returns the topic name assigned to a site.
func SiteTopic(site int) string {
	if site < 0 {
		return topics[0]
	}
	return topics[site%len(topics)]
}

// TextOptions tunes text generation.
type TextOptions struct {
	// MinWords/MaxWords bound the document length (defaults 60/180).
	MinWords, MaxWords int
	// TopicFrac is the fraction of words drawn from the site topic
	// vocabulary (default 0.6); the rest come from the background.
	TopicFrac float64
}

func (o *TextOptions) fill() {
	if o.MinWords == 0 {
		o.MinWords = 60
	}
	if o.MaxWords == 0 {
		o.MaxWords = 180
	}
	if o.MaxWords < o.MinWords {
		o.MaxWords = o.MinWords
	}
	if o.TopicFrac == 0 {
		o.TopicFrac = 0.6
	}
}

// PageText deterministically generates the text of page id: the generator
// is seeded from the corpus seed and the page id, so repeated calls (and
// repeated crawls) see identical documents.
func (s *Sim) PageText(id graph.NodeID, opts TextOptions) string {
	opts.fill()
	pg := s.g.Page(id)
	mix := uint64(s.cfg.Seed) ^ uint64(id+1)*0x9E3779B97F4A7C15
	rng := rand.New(rand.NewSource(int64(mix)))
	t := int(pg.Site) % len(topics) // SiteTopic's round-robin; a page's site is never negative
	n := opts.MinWords + rng.Intn(opts.MaxWords-opts.MinWords+1)
	var b strings.Builder
	b.Grow(n * 10)
	// Title line: the topic plus the page number, always retrievable.
	fmt.Fprintf(&b, "%s page %d.", topics[t], id)
	for w := 0; w < n; w++ {
		b.WriteByte(' ')
		if rng.Float64() < opts.TopicFrac {
			b.WriteString(topicWords[t*topicVocabSize+rng.Intn(topicVocabSize)])
		} else {
			b.WriteString(backgroundWords[rng.Intn(backgroundVocabSize)])
		}
	}
	return b.String()
}

// AllTexts generates the text of every page, indexed by NodeID.
func (s *Sim) AllTexts(opts TextOptions) []string {
	out := make([]string, s.g.NumNodes())
	for i := range out {
		out[i] = s.PageText(graph.NodeID(i), opts)
	}
	return out
}
