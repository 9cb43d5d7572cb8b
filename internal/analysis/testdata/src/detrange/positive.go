package detrangecase

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// collectUnsorted leaks map order into a slice that is never sorted.
func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want detrange "append inside map iteration"
	}
	return keys
}

// sumFloats accumulates a float in map order, so the result bits differ
// run to run.
func sumFloats(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want detrange "float accumulation inside map iteration"
	}
	return total
}

// emit writes output while iterating the map.
func emit(w io.Writer, m map[string]int) {
	var sb strings.Builder
	out := ""
	for k, v := range m {
		fmt.Fprintf(w, "%s=%d\n", k, v) // want detrange "fmt.Fprintf inside map iteration"
		sb.WriteString(k)               // want detrange ".WriteString inside map iteration"
		out += k                        // want detrange "string concatenation inside map iteration"
	}
	fmt.Fprint(w, out, sb.String())
}

// searchNotSort calls into sort and slices after the loop, but searching
// and membership order nothing: the slice keeps map order.
func searchNotSort(m map[string]int) ([]string, bool, int) {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want detrange "append inside map iteration"
	}
	return keys, slices.Contains(keys, "x"), sort.SearchStrings(keys, "x")
}
