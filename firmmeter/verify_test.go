package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"firmres"
)

func init() { goldenDir = filepath.Join("..", "testdata", "golden") }

// TestVerifyAcceptsCorpus runs both scan shapes once over the corpus and
// checks every output against its golden, as a timed run does.
func TestVerifyAcceptsCorpus(t *testing.T) {
	for _, w := range []string{"corpus-lint", "stripped-probe"} {
		spec := scanSpecs[w]
		exp, err := loadExpected(spec.stripped, spec.lint, spec.probe)
		if err != nil {
			t.Fatal(err)
		}
		imgs, err := corpusImages(spec.stripped)
		if err != nil {
			t.Fatal(err)
		}
		br, err := firmres.AnalyzeImages(context.Background(), imgs, spec.options(2)...)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range br.Images {
			if reason := exp[i+1].check(r.Report, r.Err, spec.lint); reason != "" {
				t.Errorf("%s device %d: %s", w, i+1, reason)
			}
		}
	}
}

// TestVerifyCatchesMutation flips one field of one expected report and
// checks that the comparison rejects the otherwise correct output.
func TestVerifyCatchesMutation(t *testing.T) {
	spec := scanSpecs["corpus-lint"]
	exp, err := loadExpected(spec.stripped, spec.lint, spec.probe)
	if err != nil {
		t.Fatal(err)
	}
	imgs, err := corpusImages(false)
	if err != nil {
		t.Fatal(err)
	}
	const id = 7
	rep, err := firmres.AnalyzeImage(imgs[id-1], spec.options(1)...)
	if err != nil {
		t.Fatal(err)
	}
	if reason := exp[id].check(rep, nil, spec.lint); reason != "" {
		t.Fatalf("unmutated device %d: %s", id, reason)
	}
	var mutated firmres.Report
	if err := json.Unmarshal(exp[id].report, &mutated); err != nil {
		t.Fatal(err)
	}
	mutated.Messages[0].Verdict += "-mutated"
	bad := exp[id]
	if bad.report, err = project(mutated, spec.lint); err != nil {
		t.Fatal(err)
	}
	if reason := bad.check(rep, nil, spec.lint); reason != "golden-mismatch" {
		t.Errorf("mutated expectation: reason %q, want golden-mismatch", reason)
	}
	// A fatal expectation must reject a successful report, and vice versa.
	if reason := exp[21].check(rep, nil, spec.lint); reason == "" {
		t.Error("fatal expectation accepted a report")
	}
	if reason := exp[id].check(nil, firmres.ErrNoDeviceCloudExecutable, spec.lint); reason == "" {
		t.Error("report expectation accepted a fatal error")
	}
}
