package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"
)

// TestDrainBoundAbandons drives a stand-in daemon whose one job never
// finishes and whose polls are slow, so a poll is in flight when the
// drain bound passes. The step counts the job failed once and leaves no
// pending job or poll behind for the next slice.
func TestDrainBoundAbandons(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
		} else {
			time.Sleep(20 * time.Millisecond)
		}
		fmt.Fprint(w, `{"id":"job-1","status":"running"}`)
	}))
	defer srv.Close()
	g := newLoadgen(serveConfig{Poll: time.Millisecond, Drain: 50 * time.Millisecond}, nil, nil, nil)
	g.base = srv.URL
	ctx := context.Background()
	g.mixed(ctx, []request{{kind: kindSubmit, bench: "b"}})
	g.mixed(ctx, nil) // the next slice's step
	if g.failed != 1 || g.pending != 0 || len(g.polls) != 0 || len(g.errs) != 1 {
		t.Fatalf("failed %d, pending %d, polls %d, errors %q: want one abandoned job and nothing left",
			g.failed, g.pending, len(g.polls), g.errs)
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	var names []string // the registry's size
	for i := range 122 {
		names = append(names, fmt.Sprintf("suite%d/b%d/in", i%6, i))
	}
	cfg := defaultServeConfig(15)
	first := schedule(11, 0, names, cfg)
	if !reflect.DeepEqual(first, schedule(11, 0, names, cfg)) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(first, schedule(12, 0, names, cfg)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if reflect.DeepEqual(first, schedule(11, 1, names, cfg)) {
		t.Fatal("two slices of one run got the same schedule")
	}

	// A 15 s run has 5 s slices whose mixed step lasts 4 s: 2000
	// reads, 32 submissions (every fifth repeating) and 4 uploads, the
	// same at every seed.
	counts := map[int]int{}
	var distinct, repeats []string
	for i, r := range first {
		counts[r.kind]++
		if r.kind == kindSubmit {
			if r.repeat {
				repeats = append(repeats, r.bench)
			} else {
				distinct = append(distinct, r.bench)
			}
		}
		if i > 0 && r.at < first[i-1].at {
			t.Fatalf("request %d is due before request %d", i, i-1)
		}
		if r.at < 0 || r.at >= cfg.Mixed {
			t.Fatalf("request %d due at %v, outside the %v step", i, r.at, cfg.Mixed)
		}
	}
	if reads := counts[kindSimilar] + counts[kindSimilarPhase] + counts[kindVectors]; reads != 2000 {
		t.Errorf("%d reads scheduled, want 2000", reads)
	}
	if counts[kindSimilar] < 7*counts[kindSimilarPhase] || counts[kindSimilarPhase] == 0 || counts[kindVectors] == 0 {
		t.Errorf("read mix %v is not 80/10/10", counts)
	}
	if counts[kindSubmit] != 32 || len(repeats) != 6 || counts[kindUpload] != 4 {
		t.Errorf("%d submissions (%d repeats) and %d uploads, want 32 (6) and 4", counts[kindSubmit], len(repeats), counts[kindUpload])
	}
	if counts[kindScrape] != 3 { // one per whole second inside the step
		t.Errorf("%d scrapes in a %v step", counts[kindScrape], cfg.Mixed)
	}

	// The distinct submissions name the same spread of the registry at
	// every seed, each once; the seed only orders them.
	seen := map[string]bool{}
	for _, b := range distinct {
		if seen[b] {
			t.Errorf("%s submitted twice without being marked a repeat", b)
		}
		seen[b] = true
	}
	for _, b := range repeats {
		if !seen[b] {
			t.Errorf("repeat of %s, which was not submitted before", b)
		}
	}
	var other []string
	for _, r := range schedule(12, 0, names, cfg) {
		if r.kind == kindSubmit && !r.repeat {
			other = append(other, r.bench)
		}
	}
	for _, b := range other {
		if !seen[b] {
			t.Errorf("seed 12 submits %s, which seed 11 does not", b)
		}
	}
	if len(other) != len(distinct) || reflect.DeepEqual(other, distinct) {
		t.Errorf("seeds 11 and 12 submit %v and %v: want the same names in another order", distinct, other)
	}
	// Another slice of the same run covers another part of the registry.
	for _, r := range schedule(11, 1, names, cfg) {
		if r.kind == kindSubmit && seen[r.bench] {
			t.Errorf("slices 0 and 1 both submit %s", r.bench)
		}
	}
}
