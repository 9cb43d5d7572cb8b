package crawler

import (
	"context"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"
)

// robotsRules holds the Disallow prefixes that apply to this crawler
// (user-agent *). A nil or empty rule set allows everything, matching the
// robots.txt convention that absence means no restrictions.
type robotsRules struct {
	disallow []string
}

// allowed reports whether the path may be fetched.
func (r *robotsRules) allowed(path string) bool {
	if r == nil {
		return true
	}
	for _, p := range r.disallow {
		if p != "" && strings.HasPrefix(path, p) {
			return false
		}
	}
	return true
}

// parseRobots extracts the Disallow prefixes of every group whose
// User-agent matches "*" (the only agent this crawler identifies as).
// The parser is deliberately lenient: unknown directives and malformed
// lines are skipped, comments stripped, keys case-insensitive.
func parseRobots(body string) *robotsRules {
	rules := &robotsRules{}
	// A group is one or more consecutive User-agent lines followed by
	// directives; the group applies to us if any of its agents is "*".
	applies := false
	inAgentRun := false
	// A line ends at LF, CR or CRLF (RFC 9309).
	for _, line := range strings.Split(strings.ReplaceAll(body, "\r", "\n"), "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		switch key {
		case "user-agent":
			if !inAgentRun {
				// First agent line of a new group resets the match.
				applies = false
				inAgentRun = true
			}
			if val == "*" {
				applies = true
			}
		case "disallow":
			inAgentRun = false
			if applies && val != "" {
				rules.disallow = append(rules.disallow, val)
			}
		default:
			inAgentRun = false
		}
	}
	return rules
}

// fetchRobots downloads and parses host's robots.txt, bounding the
// attempt by timeout when positive. Any error — including 404 — yields
// allow-all, per convention.
func fetchRobots(client *http.Client, host string, timeout time.Duration) *robotsRules {
	u, err := url.Parse(host)
	if err != nil {
		return &robotsRules{}
	}
	u.Path = "/robots.txt"
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return &robotsRules{}
	}
	resp, err := client.Do(req)
	if err != nil {
		return &robotsRules{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return &robotsRules{}
	}
	body, err := readBody(resp)
	if err != nil {
		return &robotsRules{}
	}
	return parseRobots(string(body))
}
