package crawler

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"pagequality/internal/pagestore"
)

// Checkpoint captures a crawl's progress so an interrupted crawl (the
// paper's crawls spanned days over 154 sites) can resume without
// re-fetching: the visited set, the outstanding frontier, the URLs that
// failed for good, and the accumulated statistics. Fetched documents
// themselves live in the pagestore archive (via Config.OnFetch); resuming
// re-fetches nothing that was archived, and the full graph is rebuilt
// offline with Assemble.
type Checkpoint struct {
	// Visited holds every URL already admitted (fetched or in the
	// frontier) except the permanently failed ones in Failed.
	Visited []string `json:"visited"`
	// Frontier holds the URLs admitted but not yet fetched when the crawl
	// stopped, including transiently failed ones queued for retry.
	Frontier []string `json:"frontier"`
	// Failed holds the URLs that failed permanently (e.g. 404): a resumed
	// crawl remembers them (never re-fetches) but they hold no page
	// budget.
	Failed []string `json:"failed,omitempty"`
	// Stats carries the accumulated counters.
	Stats Stats `json:"stats"`
}

// Save atomically persists the checkpoint as JSON
// (pagestore.WriteFileAtomic).
func (c *Checkpoint) Save(path string) error {
	data, err := json.Marshal(c)
	if err != nil {
		return fmt.Errorf("crawler: marshal checkpoint: %w", err)
	}
	return pagestore.WriteFileAtomic(path, data)
}

// LoadCheckpoint reads a checkpoint; a missing file returns (nil, nil) so
// callers can treat "no checkpoint" as a fresh crawl.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("crawler: read checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("crawler: parse checkpoint: %w", err)
	}
	return &c, nil
}
