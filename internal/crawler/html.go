package crawler

import (
	"strings"

	"pagequality/internal/search"
)

// This file is a minimal, dependency-free HTML scanner extracting exactly
// what the crawler needs: anchor hrefs and the rel=canonical link. It
// tolerates the usual messiness (attribute order, casing, single/double/
// missing quotes) without pulling in a full HTML5 parser.

// ExtractLinks returns the href of every <a> tag in document order, and
// the href of the first <link rel="canonical"> if present.
func ExtractLinks(body string) (hrefs []string, canonical string) {
	for i := 0; i < len(body); {
		var name, attrs string
		name, attrs, i = nextTag(body, i)
		switch {
		case strings.EqualFold(name, "a"):
			if href := attrValue(attrs, "href"); href != "" {
				hrefs = append(hrefs, href)
			}
		case canonical == "" && strings.EqualFold(name, "link"):
			canonical = canonicalHref(attrs)
		}
	}
	return hrefs, canonical
}

// Canonical returns ExtractLinks' second result alone: it stops at the
// first canonical link (normally in <head>) and parses the attributes
// of <link> tags only.
func Canonical(body string) string {
	for i := 0; i < len(body); {
		var name, attrs string
		name, attrs, i = nextTag(body, i)
		if strings.EqualFold(name, "link") {
			if href := canonicalHref(attrs); href != "" {
				return href
			}
		}
	}
	return ""
}

// canonicalHref returns the href of a <link> tag's attribute text if its
// rel is "canonical", else "". The href is a copy: a substring would pin
// the whole body for as long as the crawled graph or a served generation
// keeps the page's URL.
func canonicalHref(attrs string) string {
	if strings.EqualFold(attrValue(attrs, "rel"), "canonical") {
		return strings.Clone(attrValue(attrs, "href"))
	}
	return ""
}

// nextTag finds the first '<' at or after body[i] and returns the tag's
// name as written (match it with EqualFold), its unparsed attribute text
// and the index just past '>'. Comments, closing tags and malformed
// fragments return an empty name; when no tag is left, next is len(body).
func nextTag(body string, i int) (name, attrs string, next int) {
	lt := strings.IndexByte(body[i:], '<')
	if lt < 0 {
		return "", "", len(body)
	}
	i += lt + 1
	end := strings.IndexByte(body[i:], '>')
	if end < 0 {
		return "", "", len(body)
	}
	content := body[i : i+end]
	next = i + end + 1
	if content == "" || content[0] == '/' || content[0] == '!' || content[0] == '?' {
		return "", "", next
	}
	// Tag name: leading run of letters/digits.
	j := 0
	for j < len(content) && search.IsNameByte(content[j]) {
		j++
	}
	return content[:j], content[j:], next
}

// attrValue returns the value of attribute name (lower case) in a tag's
// ` key="value" key2='v' key3=v key4 ` text, entity-unescaped, without
// building a map: keys match case-insensitively, the last duplicate
// wins, and a valueless or absent attribute reads as "".
func attrValue(s, name string) string {
	var val string
	i := 0
	for i < len(s) {
		// skip whitespace and stray slashes
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r' || s[i] == '/') {
			i++
		}
		if i >= len(s) {
			break
		}
		// key
		ks := i
		for i < len(s) && s[i] != '=' && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' {
			i++
		}
		if i == ks {
			i++
			continue
		}
		match := strings.ToLower(s[ks:i]) == name
		// skip whitespace before '='
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		if i >= len(s) || s[i] != '=' {
			if match {
				val = "" // valueless attribute
			}
			continue
		}
		i++ // past '='
		for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
			i++
		}
		vs, ve := i, i
		if i < len(s) {
			switch s[i] {
			case '"', '\'':
				q := s[i]
				i++
				vs = i
				for i < len(s) && s[i] != q {
					i++
				}
				ve = i
				if i < len(s) {
					i++ // past closing quote
				}
			default:
				for i < len(s) && s[i] != ' ' && s[i] != '\t' && s[i] != '\n' && s[i] != '\r' {
					i++
				}
				ve = i
			}
		}
		if match {
			val = htmlUnescape(s[vs:ve])
		}
	}
	return val
}

// htmlUnescape handles the few entities that matter inside URLs.
func htmlUnescape(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	return entities.Replace(s)
}

var entities = strings.NewReplacer("&amp;", "&", "&lt;", "<", "&gt;", ">", "&quot;", `"`, "&#39;", "'")
