package crawler

import (
	"html"
	"strings"

	"pagequality/internal/search"
)

// This file reads exactly what the crawler needs from a page: anchor
// hrefs and the rel=canonical link. Tags are cut by search.ReadTag, the
// rule the index reads documents by, so a link inside a comment, a script
// or a style is not one. Attributes tolerate the usual messiness (order,
// casing, single/double/missing quotes) without a full HTML5 parser.

// ExtractLinks returns the href of every <a> tag in document order, and
// the href of the first <link rel="canonical"> if present.
func ExtractLinks(body string) (hrefs []string, canonical string) {
	for i := 0; ; {
		lt := strings.IndexByte(body[i:], '<')
		if lt < 0 {
			return hrefs, canonical
		}
		var name, attrs string
		name, attrs, i = search.ReadTag(body, i+lt)
		switch {
		case strings.EqualFold(name, "a"):
			if href := attrValue(attrs, "href"); href != "" {
				hrefs = append(hrefs, href)
			}
		case canonical == "" && strings.EqualFold(name, "link"):
			canonical = canonicalHref(attrs)
		}
	}
}

// Canonical returns ExtractLinks' second result alone: it stops at the
// first canonical link (normally in <head>) and parses the attributes
// of <link> tags only.
func Canonical(body string) string {
	for i := 0; ; {
		lt := strings.IndexByte(body[i:], '<')
		if lt < 0 {
			return ""
		}
		var name, attrs string
		name, attrs, i = search.ReadTag(body, i+lt)
		if strings.EqualFold(name, "link") {
			if href := canonicalHref(attrs); href != "" {
				return href
			}
		}
	}
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

// attrValue returns the value of attribute name (lower case) in a tag's
// ` key="value" key2='v' key3=v key4 ` text, decoded by
// html.UnescapeString (the inverse of the html.EscapeString the webserver
// writes with), without building a map: keys match case-insensitively,
// the last duplicate wins, and a valueless or absent attribute reads as "".
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
			val = html.UnescapeString(s[vs:ve])
		}
	}
	return val
}
