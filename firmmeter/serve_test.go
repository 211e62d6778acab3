package main

import (
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"
	"time"
)

// TestServePhase drives one small open-loop phase of every path through an
// in-process FirmServe, with the senders, the depth sampler and the
// read-back workers running concurrently (run it under -race).
func TestServePhase(t *testing.T) {
	r := &run{seed: 3, metrics: map[string]metric{}, scratch: t.TempDir(), deadline: time.Now().Add(time.Minute)}
	sr, err := newServeRun(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.start(filepath.Join(r.scratch, "data")); err != nil {
		t.Fatal(err)
	}
	defer sr.stop()
	rng := rand.New(rand.NewSource(r.seed))
	if err := sr.fillSeedPool(rng); err != nil {
		t.Fatal(err)
	}
	sr.tr = newTracer()
	ph := &servePhase{name: "test", rate: 200}
	sr.newPhase(ph, 50, rng)
	ms, err := sr.measure(ph)
	if err != nil {
		t.Fatal(err)
	}
	if r.tally.failed != 0 {
		t.Fatalf("%d of %d submissions failed: %v", r.tally.failed, r.tally.attempted, r.tally.reasons)
	}
	if len(ms) != len(ph.subs) {
		t.Errorf("%d turnarounds for %d submissions", len(ms), len(ph.subs))
	}
	codes := map[int]int{}
	for _, s := range ph.subs {
		codes[s.code]++
	}
	if codes[http.StatusAccepted] != 30 || codes[http.StatusCreated] != 10 || codes[http.StatusOK] != 10 {
		t.Errorf("answers by status %v, want 30 fresh, 10 known, 10 duplicates", codes)
	}
	if len(sr.tr.kept) == 0 {
		t.Error("no benchmark spans recorded")
	}
}
