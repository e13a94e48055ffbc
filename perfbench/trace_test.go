package main

import (
	"reflect"
	"testing"
)

// TestSelfTimesSubtractUnionOfChildren pins the self-time arithmetic:
// overlapping children are subtracted as the union of their intervals,
// not the sum of their durations, and children are clipped to the
// parent's interval.
func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	spans := []Span{
		{Layer: "server", Start: 0, End: 100, Parent: -1},
		// [10,40) and [30,60) overlap: union 50, sum 60.
		{Layer: "cache", Start: 10, End: 40, Parent: 0},
		{Layer: "cache", Start: 30, End: 60, Parent: 0},
		// Nested inside the second: counted once at the parent level.
		{Layer: "cache", Start: 35, End: 45, Parent: 0},
		// Overruns the parent's end: only [90,100) is covered.
		{Layer: "cache", Start: 90, End: 120, Parent: 0},
		// A grandchild reduces its own parent only.
		{Layer: "core", Start: 12, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - (50 + 10), // union of [10,60) and [90,100)
		30 - 8,
		30,
		10,
		30,
		8,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestSelfTimesDisjointChildren(t *testing.T) {
	spans := []Span{
		{Start: 0, End: 10, Parent: -1},
		{Start: 1, End: 3, Parent: 0},
		{Start: 5, End: 6, Parent: 0},
		{Start: 3, End: 4, Parent: 0}, // out of start order, touching the first
	}
	if got := selfTimes(spans)[0]; got != 10-4 {
		t.Fatalf("root self time = %d, want 6", got)
	}
}

func TestTracerNestsSpansPerRequest(t *testing.T) {
	tr := NewTracer()
	req := tr.newRequest("k", kindRead)
	a := tr.begin(req, "client", "fetch", kindRead)
	srv := tr.requestFor("k")
	if srv != req {
		t.Fatalf("requestFor did not join the client's request")
	}
	b := tr.begin(srv, "server", "GET", kindOther)
	c := tr.begin(srv, "cache", "open", kindOther)
	tr.end(srv, c)
	// The client may finish before the handler wrapper returns.
	tr.end(req, a)
	tr.end(srv, b)
	tr.finishRequest("k")
	if tr.requestFor("k") != nil {
		t.Fatalf("finished request still registered")
	}
	spans := tr.Spans()
	if spans[b].Parent != a || spans[c].Parent != b {
		t.Fatalf("parents = %d, %d; want %d, %d", spans[b].Parent, spans[c].Parent, a, b)
	}
	for _, s := range spans {
		if s.Kind != kindRead || s.Req != req.id {
			t.Fatalf("span %+v not attributed to read request %d", s, req.id)
		}
	}
}
