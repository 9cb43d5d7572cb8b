package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestAnalyticExperiments(t *testing.T) {
	// The analytic experiments are fast; run them individually and check
	// the key reported values appear.
	cases := []struct {
		name string
		want []string
	}{
		{"table1", []string{"PR(p)", "Total number of Web users"}},
		{"figure1", []string{"Q=0.8", "life stages", "maturity"}},
		{"figure2", []string{"I(p,t)", "P(p,t)"}},
		{"figure3", []string{"Theorem 2", "max |I+P - Q|"}},
		{"figure4", []string{"t1", "t4", "[4 4 18]"}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := run([]string{"-run", c.name}, &buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, w := range c.want {
			if !strings.Contains(buf.String(), w) {
				t.Fatalf("%s output missing %q:\n%s", c.name, w, buf.String())
			}
		}
	}
}

func TestHeadlineQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "headline", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{"average relative error", "paper: 0.32", "paper: 0.78", "improvement factor"} {
		if !strings.Contains(out, w) {
			t.Fatalf("headline output missing %q:\n%s", w, out)
		}
	}
}

func TestFigure5Quick(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "figure5", "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, w := range []string{"first bin", "last bin", "Q(p)", "PR(p,t3)"} {
		if !strings.Contains(out, w) {
			t.Fatalf("figure5 output missing %q:\n%s", w, out)
		}
	}
}

func TestValidateModelRun(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "validate-model"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sup-norm") {
		t.Fatalf("validate-model output wrong:\n%s", buf.String())
	}
}

func TestUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-run", "figure99"}, &buf); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations run several corpora")
	}
	for _, name := range []string{"ablation-c", "ablation-forgetting", "ablation-window"} {
		var buf bytes.Buffer
		if err := run([]string{"-run", name, "-quick"}, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(buf.String(), "Ablation") {
			t.Fatalf("%s output wrong:\n%s", name, buf.String())
		}
	}
}

// TestQuickSectionsMatchRunAll: each corpus-backed step run alone prints
// exactly its section of -run all, whatever the steps before it in -run
// all built or shared.
func TestQuickSectionsMatchRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment on the quick corpus")
	}
	var all bytes.Buffer
	if err := run([]string{"-quick"}, &all); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"headline", "figure5", "ablation-c", "ablation-forgetting", "risingstars"} {
		var alone bytes.Buffer
		if err := run([]string{"-run", name, "-quick"}, &alone); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		header := "\n================ " + name + " ================\n"
		start := strings.Index(all.String(), header)
		if start < 0 {
			t.Fatalf("-run all printed no %s section", name)
		}
		section := all.String()[start:]
		if end := strings.Index(section[len(header):], "\n================ "); end >= 0 {
			section = section[:len(header)+end]
		}
		if alone.String() != section {
			t.Errorf("%s alone:\n%s--- its section of -run all:\n%s", name, alone.String(), section)
		}
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-run", "figure1", "-csv", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t,popularity\n") {
		t.Fatalf("figure1.csv header wrong: %q", string(data)[:30])
	}
	if !strings.Contains(buf.String(), "wrote") {
		t.Fatalf("confirmation missing:\n%s", buf.String())
	}
	// Quick corpus run exporting headline + figure5.
	buf.Reset()
	if err := run([]string{"-run", "figure5", "-csv", dir, "-quick"}, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "figure5.csv")); err != nil {
		t.Fatal(err)
	}
}
