package main

import (
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	if err := run([]string{"-exp", "table1", "-scale", "0.02"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "table1", "-scale", "0.02", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunUnknownExperiment: an unknown name — including the retired
// warm, refine, churn and transport demos — fails before any dataset is
// generated, rather than running nothing and exiting cleanly.
func TestRunUnknownExperiment(t *testing.T) {
	for _, exp := range []string{"fig99", "warm", "refine", "churn", "transport"} {
		err := run([]string{"-exp", exp})
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: err = %v, want unknown experiment", exp, err)
		}
	}
}

func TestRunUnknownDataset(t *testing.T) {
	if err := run([]string{"-exp", "fig3", "-datasets", "nope", "-pairs", "1"}); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestRunFig3Tiny exercises the full fig3 path end to end at minimal cost.
func TestRunFig3Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	err := run([]string{
		"-exp", "fig3", "-datasets", "Wiki", "-pairs", "2",
		"-scale", "0.03", "-maxreal", "3000", "-trials", "2000",
	})
	if err != nil {
		t.Fatal(err)
	}
}
