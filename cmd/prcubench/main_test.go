package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"prcu/internal/bench"
)

func TestParseThreads(t *testing.T) {
	cases := []struct {
		in   string
		want []int
		ok   bool
	}{
		{"1,2,4", []int{1, 2, 4}, true},
		{" 8 , 16 ", []int{8, 16}, true},
		{"1", []int{1}, true},
		{"", nil, false},
		{"0", nil, false},
		{"-3", nil, false},
		{"two", nil, false},
	}
	for _, c := range cases {
		got, err := parseThreads(c.in)
		if c.ok != (err == nil) {
			t.Errorf("parseThreads(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if !c.ok {
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseThreads(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseThreads(%q) = %v, want %v", c.in, got, c.want)
			}
		}
	}
}

func TestDispatchUnknown(t *testing.T) {
	var buf bytes.Buffer
	cfg := bench.DefaultConfig(&buf)
	err := dispatch("nope", cfg, false, time.Second)
	if err == nil {
		t.Fatal("unknown subcommand must error")
	}
	// The error must teach the full subcommand list, including blame.
	for _, want := range []string{"blame", "stats", "reclaim", "fig9", "all"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-subcommand error %q does not list %s", err, want)
		}
	}
}

func TestDispatchRunsExperiment(t *testing.T) {
	var buf bytes.Buffer
	cfg := bench.DefaultConfig(&buf)
	cfg.Threads = []int{1}
	cfg.Duration = 5 * time.Millisecond
	cfg.Runs = 1
	cfg.SmallKeys = 256
	cfg.LargeKeys = 512
	cfg.HashElements = 512
	if err := dispatch("fig1", cfg, false, time.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 1") {
		t.Fatalf("dispatch produced unexpected output:\n%s", buf.String())
	}
}
