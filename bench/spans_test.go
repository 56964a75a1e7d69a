package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Trace: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 50): 40 ms, counted once.
		{ID: 2, Parent: 1, Trace: 1, Name: "child", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Trace: 1, Name: "child", Start: 30 * ms, End: 50 * ms},
		// A child running past its parent is clipped to it: 10 ms.
		{ID: 4, Parent: 1, Trace: 1, Name: "late", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its parent's self time, not the root's.
		{ID: 5, Parent: 2, Trace: 1, Name: "grandchild", Start: 15 * ms, End: 25 * ms},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"op":         50 * time.Millisecond, // 100 - 40 - 10
		"child":      40 * time.Millisecond, // (30 - 10) + 20
		"late":       30 * time.Millisecond,
		"grandchild": 10 * time.Millisecond,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if id := off.start("x", 0, 1); id != 0 {
		t.Fatalf("a nil tracer returned span id %d", id)
	}
	off.end(0)
	if off.closed() != nil {
		t.Fatal("a nil tracer holds spans")
	}

	tr := &tracer{}
	root := tr.start("root", 0, 7)
	child := tr.start("child", root, 7)
	open := tr.start("open", root, 7)
	tr.end(child)
	tr.end(root)
	now := time.Now()
	tr.record("request", root, 7, now, now.Add(time.Millisecond))
	spans := tr.closed()
	if len(spans) != 3 {
		t.Fatalf("closed() = %d spans, want 3 (the unfinished span %d excluded)", len(spans), open)
	}
	for _, s := range spans {
		if s.Trace != 7 || s.End < s.Start {
			t.Fatalf("bad span %+v", s)
		}
		if s.Name != "root" && s.Parent != root {
			t.Fatalf("span %s has parent %d, want %d", s.Name, s.Parent, root)
		}
	}
	moved := renumber(spans, 10)
	if moved[0].ID != spans[0].ID+10 || moved[0].Parent != 0 || moved[1].Parent != root+10 {
		t.Fatalf("renumber(10) = %+v", moved)
	}
}
