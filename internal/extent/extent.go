// Package extent defines the contiguous-run abstraction used throughout the
// storage stack and a free-space index with the two orderings every
// allocation policy in the paper's discussion needs:
//
//   - by volume offset, with automatic neighbour coalescing on free — the
//     structure a filesystem bitmap or run list provides, and
//   - by (length, offset) — the structure behind best-fit, worst-fit and the
//     NTFS run cache's "runs of contiguous free clusters ordered in
//     decreasing size" (paper §2).
//
// All quantities are in clusters; the disk layer converts bytes to clusters.
package extent

import (
	"fmt"

	"repro/internal/btree"
)

// Run is a contiguous range of clusters [Start, Start+Len).
type Run struct {
	Start int64 // first cluster
	Len   int64 // number of clusters, > 0 for valid runs
}

// End returns the first cluster after the run.
func (r Run) End() int64 { return r.Start + r.Len }

// Contains reports whether cluster c lies inside the run.
func (r Run) Contains(c int64) bool { return c >= r.Start && c < r.End() }

// Overlaps reports whether two runs share any cluster.
func (r Run) Overlaps(o Run) bool { return r.Start < o.End() && o.Start < r.End() }

// Adjacent reports whether o begins exactly where r ends or vice versa.
func (r Run) Adjacent(o Run) bool { return r.End() == o.Start || o.End() == r.Start }

func (r Run) String() string { return fmt.Sprintf("[%d,+%d)", r.Start, r.Len) }

// SumLen returns the total cluster count of runs.
func SumLen(runs []Run) int64 {
	var n int64
	for _, r := range runs {
		n += r.Len
	}
	return n
}

// sizeKey orders runs by length then offset so that best-fit (Ceiling) and
// largest-first (Descend) are both single tree operations.
type sizeKey struct {
	len   int64
	start int64
}

// FreeIndex tracks the free runs of a volume. It maintains both orderings
// and coalesces adjacent runs on Free. The zero value is not usable; create
// one with NewFreeIndex.
type FreeIndex struct {
	byOffset *btree.Map[int64, int64]      // start -> len
	bySize   *btree.Map[sizeKey, struct{}] // (len,start) -> {}
	free     int64                         // total free clusters
}

// NewFreeIndex returns an empty index.
func NewFreeIndex() *FreeIndex {
	return &FreeIndex{
		byOffset: btree.New[int64, int64](func(a, b int64) bool { return a < b }),
		bySize: btree.New[sizeKey, struct{}](func(a, b sizeKey) bool {
			if a.len != b.len {
				return a.len < b.len
			}
			return a.start < b.start
		}),
	}
}

// FreeClusters returns the total number of free clusters tracked.
func (f *FreeIndex) FreeClusters() int64 { return f.free }

// RunCount returns the number of distinct free runs.
func (f *FreeIndex) RunCount() int { return f.byOffset.Len() }

// LargestRun returns the largest free run, or ok=false when empty.
func (f *FreeIndex) LargestRun() (Run, bool) {
	k, _, ok := f.bySize.Max()
	if !ok {
		return Run{}, false
	}
	return Run{Start: k.start, Len: k.len}, true
}

func (f *FreeIndex) insert(r Run) {
	f.byOffset.Put(r.Start, r.Len)
	f.bySize.Put(sizeKey{r.Len, r.Start}, struct{}{})
	f.free += r.Len
}

func (f *FreeIndex) remove(r Run) {
	if !f.byOffset.Delete(r.Start) {
		panic(fmt.Sprintf("extent: remove of untracked run %v", r))
	}
	if !f.bySize.Delete(sizeKey{r.Len, r.Start}) {
		panic(fmt.Sprintf("extent: size index missing run %v", r))
	}
	f.free -= r.Len
}

// Free returns run r to the index, coalescing with adjacent free runs.
// It panics if r overlaps space that is already free (a double free).
func (f *FreeIndex) Free(r Run) {
	if r.Len <= 0 {
		panic(fmt.Sprintf("extent: Free of empty run %v", r))
	}
	// Check and absorb the predecessor.
	if ps, pl, ok := f.byOffset.Floor(r.Start); ok {
		prev := Run{Start: ps, Len: pl}
		if prev.Overlaps(r) {
			panic(fmt.Sprintf("extent: double free: %v overlaps free %v", r, prev))
		}
		if prev.End() == r.Start {
			f.remove(prev)
			r = Run{Start: prev.Start, Len: prev.Len + r.Len}
		}
	}
	// Check and absorb the successor.
	if ns, nl, ok := f.byOffset.Ceiling(r.Start + 1); ok {
		next := Run{Start: ns, Len: nl}
		if next.Overlaps(r) {
			panic(fmt.Sprintf("extent: double free: %v overlaps free %v", r, next))
		}
		if r.End() == next.Start {
			f.remove(next)
			r = Run{Start: r.Start, Len: r.Len + next.Len}
		}
	}
	f.insert(r)
}

// Reserve removes the specific run r from the free index, splitting a
// containing run as needed. It reports whether r was entirely free.
func (f *FreeIndex) Reserve(r Run) bool {
	if r.Len <= 0 {
		return false
	}
	s, l, ok := f.byOffset.Floor(r.Start)
	if !ok {
		return false
	}
	host := Run{Start: s, Len: l}
	if r.Start < host.Start || r.End() > host.End() {
		return false
	}
	f.carve(host, r)
	return true
}

// carve removes r from host, the tracked free run containing it.
func (f *FreeIndex) carve(host, r Run) {
	if r.Start == host.Start {
		f.takePrefix(host, r.Len)
		return
	}
	f.remove(host)
	f.insert(Run{Start: host.Start, Len: r.Start - host.Start})
	if r.End() < host.End() {
		f.insert(Run{Start: r.End(), Len: host.End() - r.End()})
	}
}

// IsFree reports whether the entire run r is currently free.
func (f *FreeIndex) IsFree(r Run) bool {
	s, l, ok := f.byOffset.Floor(r.Start)
	if !ok {
		return false
	}
	host := Run{Start: s, Len: l}
	return r.Start >= host.Start && r.End() <= host.End()
}

// TakeFirstFit removes and returns the lowest-offset free run of at least n
// clusters, trimmed to exactly n. ok=false if no run is large enough.
func (f *FreeIndex) TakeFirstFit(n int64) (Run, bool) {
	var got Run
	found := false
	f.byOffset.Ascend(func(start, length int64) bool {
		if length >= n {
			got = Run{Start: start, Len: length}
			found = true
			return false
		}
		return true
	})
	if !found {
		return Run{}, false
	}
	f.takePrefix(got, n)
	return Run{Start: got.Start, Len: n}, true
}

// TakeFirstFitBelow removes and returns the lowest-offset free run of at
// least n clusters that starts below limit, trimmed to exactly n.
func (f *FreeIndex) TakeFirstFitBelow(n, limit int64) (Run, bool) {
	var got Run
	found := false
	f.byOffset.Ascend(func(start, length int64) bool {
		if start >= limit {
			return false
		}
		if length >= n {
			got = Run{Start: start, Len: length}
			found = true
			return false
		}
		return true
	})
	if !found {
		return Run{}, false
	}
	f.takePrefix(got, n)
	return Run{Start: got.Start, Len: n}, true
}

// TakeBestFit removes and returns the smallest free run of at least n
// clusters (ties to lowest offset), trimmed to exactly n.
func (f *FreeIndex) TakeBestFit(n int64) (Run, bool) {
	k, _, ok := f.bySize.Ceiling(sizeKey{len: n, start: -1 << 62})
	if !ok {
		return Run{}, false
	}
	got := Run{Start: k.start, Len: k.len}
	f.takePrefix(got, n)
	return Run{Start: got.Start, Len: n}, true
}

// TakeWorstFit removes and returns the prefix of the largest free run,
// trimmed to exactly n clusters.
func (f *FreeIndex) TakeWorstFit(n int64) (Run, bool) {
	k, _, ok := f.bySize.Max()
	if !ok || k.len < n {
		return Run{}, false
	}
	got := Run{Start: k.start, Len: k.len}
	f.takePrefix(got, n)
	return Run{Start: got.Start, Len: n}, true
}

// TakeNextFit behaves like first fit but starts scanning at cursor,
// wrapping around. It returns the new cursor (end of the allocation).
func (f *FreeIndex) TakeNextFit(n, cursor int64) (Run, int64, bool) {
	var got Run
	found := false
	scan := func(start, length int64) bool {
		if length >= n {
			got = Run{Start: start, Len: length}
			found = true
			return false
		}
		return true
	}
	f.byOffset.AscendFrom(cursor, scan)
	if !found {
		f.byOffset.Ascend(scan)
	}
	if !found {
		return Run{}, cursor, false
	}
	f.takePrefix(got, n)
	r := Run{Start: got.Start, Len: n}
	return r, r.End(), true
}

// TakeUpTo removes and returns the prefix of the largest free run, with
// length min(n, run length). Used by allocators that accept fragmentation:
// callers loop until they have n clusters total.
func (f *FreeIndex) TakeUpTo(n int64) (Run, bool) {
	k, _, ok := f.bySize.Max()
	if !ok {
		return Run{}, false
	}
	got := Run{Start: k.start, Len: k.len}
	take := min(n, got.Len)
	f.takePrefix(got, take)
	return Run{Start: got.Start, Len: take}, true
}

// TakeAt attempts to reserve exactly n clusters starting at cluster start.
// Used for sequential tail extension (NTFS's contiguous-append behaviour).
func (f *FreeIndex) TakeAt(start, n int64) (Run, bool) {
	r := Run{Start: start, Len: n}
	if !f.Reserve(r) {
		return Run{}, false
	}
	return r, true
}

// ExtendAt reserves as many clusters as are free at start, up to n.
// Returns ok=false if even one cluster at start is unavailable.
func (f *FreeIndex) ExtendAt(start, n int64) (Run, bool) {
	s, l, ok := f.byOffset.Floor(start)
	if !ok {
		return Run{}, false
	}
	host := Run{Start: s, Len: l}
	if !host.Contains(start) {
		return Run{}, false
	}
	r := Run{Start: start, Len: min(n, host.End()-start)}
	f.carve(host, r)
	return r, true
}

// takePrefix removes the first n clusters of tracked run got. The
// remainder keeps got's place in offset order — no free run lies inside
// got — so its by-offset entry is rekeyed in place; only the by-size
// entry moves.
func (f *FreeIndex) takePrefix(got Run, n int64) {
	if n > got.Len {
		panic(fmt.Sprintf("extent: takePrefix %d from %v", n, got))
	}
	if n == got.Len {
		f.remove(got)
		return
	}
	rest := Run{Start: got.Start + n, Len: got.Len - n}
	if !f.byOffset.Rekey(got.Start, rest.Start, rest.Len) {
		panic(fmt.Sprintf("extent: takePrefix of untracked run %v", got))
	}
	if !f.bySize.Delete(sizeKey{got.Len, got.Start}) {
		panic(fmt.Sprintf("extent: size index missing run %v", got))
	}
	f.bySize.Put(sizeKey{rest.Len, rest.Start}, struct{}{})
	f.free -= n
}

// Runs returns all free runs in offset order. Intended for tools and tests.
func (f *FreeIndex) Runs() []Run {
	out := make([]Run, 0, f.byOffset.Len())
	f.byOffset.Ascend(func(s, l int64) bool {
		out = append(out, Run{Start: s, Len: l})
		return true
	})
	return out
}

// AscendSizeDesc visits free runs from largest to smallest (ties by higher
// offset first, matching NTFS's "decreasing size and volume offset" cache
// order) until fn returns false.
func (f *FreeIndex) AscendSizeDesc(fn func(Run) bool) {
	f.bySize.Descend(func(k sizeKey, _ struct{}) bool {
		return fn(Run{Start: k.start, Len: k.len})
	})
}

// CheckInvariants panics if the two indexes disagree, runs overlap, or
// adjacent runs were left uncoalesced. Intended for tests.
func (f *FreeIndex) CheckInvariants() {
	if f.byOffset.Len() != f.bySize.Len() {
		panic("extent: index length mismatch")
	}
	var prev *Run
	var total int64
	f.byOffset.Ascend(func(s, l int64) bool {
		r := Run{Start: s, Len: l}
		if l <= 0 {
			panic(fmt.Sprintf("extent: empty run %v in index", r))
		}
		if _, ok := f.bySize.Get(sizeKey{l, s}); !ok {
			panic(fmt.Sprintf("extent: run %v missing from size index", r))
		}
		if prev != nil {
			if prev.Overlaps(r) {
				panic(fmt.Sprintf("extent: overlapping free runs %v %v", *prev, r))
			}
			if prev.End() == r.Start {
				panic(fmt.Sprintf("extent: uncoalesced free runs %v %v", *prev, r))
			}
		}
		rr := r
		prev = &rr
		total += l
		return true
	})
	if total != f.free {
		panic(fmt.Sprintf("extent: free count %d != sum %d", f.free, total))
	}
}
