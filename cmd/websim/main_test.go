package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pagequality/internal/experiments"
	"pagequality/internal/snapshot"
	"pagequality/internal/webcorpus"
)

func TestWebsimEndToEnd(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "web.pqs")
	var buf bytes.Buffer
	err := run([]string{
		"-out", out, "-sites", "8", "-pages", "5", "-users", "2000",
		"-burnin", "10", "-birth", "2", "-seed", "3",
		"-schedule", "0,4,8",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "wrote 3 snapshots") {
		t.Fatalf("output missing confirmation:\n%s", buf.String())
	}
	snaps, err := snapshot.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 || snaps[0].Label != "t1" || snaps[2].Label != "t3" {
		t.Fatalf("store contents wrong: %d snapshots", len(snaps))
	}
	if snaps[2].Time != 8 {
		t.Fatalf("t3 at week %g", snaps[2].Time)
	}
	for i, s := range snaps {
		if err := s.Graph.Validate(); err != nil {
			t.Fatalf("snapshot %d invalid: %v", i, err)
		}
	}
}

// TestWebsimDefaultsAreTheHeadlineCorpus: with no flag but the schedule,
// websim writes the store webcorpus.New of the headline experiment's
// corpus writes, byte for byte.
func TestWebsimDefaultsAreTheHeadlineCorpus(t *testing.T) {
	dir := t.TempDir()
	got := filepath.Join(dir, "websim.pqs")
	if err := run([]string{"-out", got, "-schedule", "0"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	sim, err := webcorpus.New(experiments.DefaultHeadlineConfig().Corpus)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := sim.RunSchedule(webcorpus.Schedule{Times: []float64{0}, Labels: []string{"t1"}})
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "want.pqs")
	if err := snapshot.WriteFile(want, snaps); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("websim wrote %d bytes, the headline corpus %d: the stores differ", len(a), len(b))
	}
}

func TestWebsimBadSchedule(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-schedule", "0,zzz"}, &buf); err == nil {
		t.Fatal("bad schedule accepted")
	}
	if err := run([]string{"-schedule", "8,0"}, &buf); err == nil {
		t.Fatal("decreasing schedule accepted")
	}
}

func TestWebsimBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-sites", "0"}, &buf); err == nil {
		t.Fatal("zero sites accepted")
	}
}

// TestWebsimRefusesNonFiniteFlags runs three float flags at values that
// pass a plain < or <= bound: each must end in ErrBadConfig. An infinite
// session rate used to panic sizing a slice, a NaN burn-in wrote an
// unburnt corpus and an infinite birth rate grew no pages.
func TestWebsimRefusesNonFiniteFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-sessions-per-week", "Inf"},
		{"-burnin", "NaN"},
		{"-birth", "Inf"},
	} {
		wantBadConfig(t, args)
	}
}

// TestWebsimRefusesHugeRates runs two rates at a finite value whose
// per-tick mean passes randx.MaxMean: each must end in ErrBadConfig. The
// session rate used to panic sizing a slice and the birth rate grew no
// pages, because the Poisson draw's float overflowed the int conversion.
func TestWebsimRefusesHugeRates(t *testing.T) {
	for _, args := range [][]string{
		{"-sessions-per-week", "1e300"},
		{"-birth", "1e300"},
	} {
		wantBadConfig(t, args)
	}
}

// TestWebsimRefusesHugeHorizons runs a burn-in and a schedule time whose
// tick count passes the horizon bound: each must end in ErrBadConfig
// naming the field. Both used to write a store, at week -1e300 and at
// week 0, because the float tick count overflowed the int conversion.
func TestWebsimRefusesHugeHorizons(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		field string
	}{
		{[]string{"-burnin", "1e300"}, "BurnInWeeks"},
		{[]string{"-schedule", "0,1e300"}, "Times[1]"},
	} {
		if err := wantBadConfig(t, tc.args); err != nil && !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%v: error %v does not name %s", tc.args, err, tc.field)
		}
	}
}

// wantBadConfig runs websim on a tiny corpus with args appended and fails
// unless the run ends in ErrBadConfig without a panic. It returns the
// error.
func wantBadConfig(t *testing.T, args []string) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%v: panic %v", args, r)
		}
	}()
	out := filepath.Join(t.TempDir(), "web.pqs")
	err = run(append([]string{"-out", out, "-sites", "5", "-burnin", "1", "-schedule", "0,1"}, args...), io.Discard)
	if !errors.Is(err, webcorpus.ErrBadConfig) {
		t.Errorf("%v: error %v, want ErrBadConfig", args, err)
	}
	return err
}

func TestParseSchedule(t *testing.T) {
	s, err := parseSchedule("0, 4 ,8")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Times) != 3 || s.Times[1] != 4 || s.Labels[2] != "t3" {
		t.Fatalf("parsed %+v", s)
	}
}
