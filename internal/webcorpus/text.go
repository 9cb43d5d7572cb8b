package webcorpus

import (
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"pagequality/internal/graph"
)

// This file synthesises page text for the search-engine substrate. Each
// site is assigned a topic; a page's text mixes its site's topic
// vocabulary with a global background vocabulary, so topical queries
// retrieve pages from a handful of sites — mirroring how real keyword
// queries define a relevant set that the quality metric then ranks
// (Section 4's relevance-versus-quality discussion).

// topics is the pool of topic names sites draw from (round-robin).
var topics = [...]string{
	"astronomy", "databases", "cycling", "cooking", "gardening",
	"photography", "sailing", "chess", "volcanoes", "typography",
	"cryptography", "orchids", "meteorology", "railways", "beekeeping",
	"calligraphy", "robotics", "genomics", "economics", "linguistics",
}

// NumTopics is the number of distinct topic names: SiteTopic(site) and
// SiteTopic(site+NumTopics) are the same topic.
const NumTopics = len(topics)

// topicVocabSize is how many distinct topic words each topic has.
const topicVocabSize = 40

// backgroundVocabSize is the size of the shared background vocabulary.
const backgroundVocabSize = 400

// pageVocab is every word a page draws after its title: at w the w-th
// background word, e.g. "common123", and at topicSlot(t)+w the w-th word
// of topic t's vocabulary, e.g. "astronomy17". Built once: page words are
// drawn on the tick hot path.
var pageVocab = func() (v []string) {
	for w := 0; w < backgroundVocabSize; w++ {
		v = append(v, "common"+strconv.Itoa(w))
	}
	for _, topic := range topics {
		for w := 0; w < topicVocabSize; w++ {
			v = append(v, topic+strconv.Itoa(w))
		}
	}
	return v
}()

func topicSlot(t int) int { return backgroundVocabSize + t*topicVocabSize }

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
	title, slots := s.pageWords(id, opts)
	var b strings.Builder
	b.Grow(len(title) + len(slots)*10)
	b.WriteString(title)
	for _, w := range slots {
		b.WriteByte(' ')
		b.WriteString(pageVocab[w])
	}
	return b.String()
}

// pageRNGs recycles page text generators: reseeding one yields the
// sequence a new one would, without allocating its 4.9 KB of state.
var pageRNGs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// pageWords makes every draw of page id's text: its title, the topic plus
// the page number so that every page is retrievable, and in order the
// slot in pageVocab of each word after it. PageText renders them and the
// refresh indexes them (Lexicon.Analyze), so the two cannot disagree.
func (s *Sim) pageWords(id graph.NodeID, opts TextOptions) (title string, slots []int) {
	opts.fill()
	mix := uint64(s.cfg.Seed) ^ uint64(id+1)*0x9E3779B97F4A7C15
	rng := pageRNGs.Get().(*rand.Rand)
	defer pageRNGs.Put(rng)
	rng.Seed(int64(mix))
	t := int(s.g.Page(id).Site) % len(topics) // SiteTopic's round-robin; a page's site is never negative
	slots = make([]int, opts.MinWords+rng.Intn(opts.MaxWords-opts.MinWords+1))
	for w := range slots {
		if rng.Float64() < opts.TopicFrac {
			slots[w] = topicSlot(t) + rng.Intn(topicVocabSize)
		} else {
			slots[w] = rng.Intn(backgroundVocabSize)
		}
	}
	return topics[t] + " page " + strconv.Itoa(int(id)) + ".", slots
}

// AllTexts generates the text of every page, indexed by NodeID.
func (s *Sim) AllTexts(opts TextOptions) []string {
	out := make([]string, s.g.NumNodes())
	for i := range out {
		out[i] = s.PageText(graph.NodeID(i), opts)
	}
	return out
}
