package pagequality_test

import (
	"os"
	"path"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents whose citations of the tree must resolve.
var citingDocs = []string{
	"README.md",
	"DESIGN.md",
	"EXPERIMENTS.md",
	"PAPER.md",
	".claude/skills/verify/SKILL.md",
	"cmd/bench/README.md",
}

// citedPath matches a repository path such as `internal/search/sharded.go`,
// `./cmd/experiments` or `internal/webcorpus.Schedule`; a path glued to
// an import-path prefix (`pagequality/internal/…`) is not one.
var citedPath = regexp.MustCompile(`(?:^|[^\w/.-])(?:\./)?((?:internal|cmd|examples)/[\w./-]*)`)

// TestDocsCitePathsThatExist fails on a document that names a package,
// command or file the tree no longer has. In the `pkg.Ident` form only
// the package directory must exist; identifiers are not checked.
func TestDocsCitePathsThatExist(t *testing.T) {
	cited := 0
	for _, doc := range citingDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(data), "\n") {
			for _, m := range citedPath.FindAllStringSubmatch(line, -1) {
				cited++
				p := strings.TrimRight(m[1], "./-")
				if _, err := os.Stat(p); err == nil {
					continue
				}
				dir, base := path.Split(p)
				if i := strings.IndexByte(base, '.'); i > 0 {
					if _, err := os.Stat(dir + base[:i]); err == nil {
						continue
					}
				}
				t.Errorf("%s:%d cites %s, which does not exist", doc, n+1, m[1])
			}
		}
	}
	if cited < 100 {
		t.Fatalf("found only %d cited paths: the scan is broken", cited)
	}
}
