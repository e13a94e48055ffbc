package db

import (
	"fmt"
	"math/bits"
)

// Allocator is the GAM/PFS analog: a bitmap of wholly free extents plus,
// as in SQL Server's PFS pages, a dense array of per-extent free-page
// masks. A second bitmap marks the extents whose mask is non-zero, so
// finding the next partial extent is the same word scan as finding the
// next free one. The allocation policy is a roving-cursor (next-fit)
// scan: like a real engine, the GAM scan resumes where the previous one
// left off rather than rescanning from the start of the file, filling
// partially used extents encountered ahead of the cursor before
// dedicating fresh ones.
//
// Next-fit is the behaviour the paper's SQL Server curves imply: the
// roving cursor steadily splits free regions at unaligned offsets, so
// free runs decay in size and fragments/object climbs without an
// asymptote (Figures 2 and 5), in contrast to NTFS's coalescing
// largest-run-first cache. The classic malloc literature the paper cites
// (§3.2) documents the same policy/fragmentation relationship.
type Allocator struct {
	extents int64

	// gam bit e is set when extent e is wholly free (GAM bit).
	gam []uint64
	// pfs[e] is the bitmask of free pages within allocated extent e; it
	// is 0 for a full extent and for a wholly free one (GAM-free or
	// queued for reuse). partial bit e is set iff pfs[e] != 0, and
	// partials counts those bits.
	pfs      []uint8
	partial  []uint64
	partials int
	// cursor is the extent where the next scan begins.
	cursor int64

	// reqPages/reqRuns back AllocRequest and pagePages/pageRuns back
	// AllocPages: the allocator is called a few times per operation on a
	// single-threaded engine, so reusing the accumulation buffers
	// removes two allocs per call. Each returned run slice is valid only
	// until that method's next call; the two methods keep separate
	// buffers because AllocRequest's tail calls AllocPages.
	reqPages  []PageID
	reqRuns   []PageRun
	pagePages []PageID
	pageRuns  []PageRun
	// mixed is the extent currently feeding page-granular allocations
	// (the mixed-extent pool); -1 when none.
	mixed int64

	// reuse is the deallocation cache: extents whose last page was freed,
	// in completion order. New allocations consume it FIFO before falling
	// back to the GAM scan. Real engines keep such caches so fresh
	// allocations do not pay a bitmap scan; the consequence — freed space
	// is reused in deallocation order, not address order, so it never
	// re-coalesces — is the compounding scatter behind the paper's
	// observation that SQL Server's fragmentation "increases almost
	// linearly over time and does not seem to be approaching any
	// asymptote" (§5.3).
	reuse     []int64
	reuseHead int

	freePages int64
}

// NewAllocator creates an allocator over the given number of extents,
// all initially free.
func NewAllocator(extents int64) *Allocator {
	if extents <= 0 {
		panic(fmt.Sprintf("db: bad extent count %d", extents))
	}
	a := &Allocator{
		extents:   extents,
		gam:       make([]uint64, (extents+63)/64),
		pfs:       make([]uint8, extents),
		partial:   make([]uint64, (extents+63)/64),
		mixed:     -1,
		freePages: extents * PagesPerExtent,
	}
	for i := int64(0); i < extents; i++ {
		a.gam[i/64] |= 1 << uint(i%64)
	}
	return a
}

// FreePages returns the total number of free pages.
func (a *Allocator) FreePages() int64 { return a.freePages }

// Extents returns the total extent count.
func (a *Allocator) Extents() int64 { return a.extents }

func (a *Allocator) gamGet(e int64) bool { return a.gam[e/64]&(1<<uint(e%64)) != 0 }
func (a *Allocator) gamClear(e int64)    { a.gam[e/64] &^= 1 << uint(e%64) }
func (a *Allocator) gamSet(e int64)      { a.gam[e/64] |= 1 << uint(e%64) }

// setPFS stores extent e's free-page mask, keeping the partial bitmap and
// count in step with it.
func (a *Allocator) setPFS(e int64, mask uint8) {
	was := a.pfs[e] != 0
	a.pfs[e] = mask
	if is := mask != 0; is != was {
		a.partial[e/64] ^= 1 << uint(e%64)
		if is {
			a.partials++
		} else {
			a.partials--
		}
	}
}

// nextFreeExtent returns the next wholly-free extent: the head of the
// deallocation cache when one exists, otherwise the first GAM extent at
// or after the cursor (wrapping once); -1 when none exists. The returned
// extent is still marked allocated in neither structure — callers must
// call takeFreeExtent to claim it.
func (a *Allocator) nextFreeExtent() int64 {
	if a.reuseHead < len(a.reuse) {
		return a.reuse[a.reuseHead]
	}
	return a.scanWrap(a.gam)
}

// takeFreeExtent claims extent e returned by nextFreeExtent.
func (a *Allocator) takeFreeExtent(e int64) {
	if a.reuseHead < len(a.reuse) && a.reuse[a.reuseHead] == e {
		a.reuseHead++
		if a.reuseHead == len(a.reuse) {
			a.reuse = a.reuse[:0]
			a.reuseHead = 0
		}
		return
	}
	a.gamClear(e)
	a.cursor = (e + 1) % a.extents
}

// scanWrap returns the first extent whose bit is set in bitmap (the GAM
// or the partial-extent map) at or after the cursor, wrapping around
// once; -1 when none is set.
func (a *Allocator) scanWrap(bitmap []uint64) int64 {
	if e := a.scanFrom(bitmap, a.cursor); e != -1 {
		return e
	}
	return a.scanFrom(bitmap, 0)
}

// scanFrom returns the first extent >= from whose bit is set in bitmap,
// or -1.
func (a *Allocator) scanFrom(bitmap []uint64, from int64) int64 {
	if from >= a.extents {
		return -1
	}
	w := from / 64
	// Mask off bits below `from` in the first word.
	word := bitmap[w] &^ ((1 << uint(from%64)) - 1)
	for {
		if word != 0 {
			e := w*64 + int64(bits.TrailingZeros64(word))
			if e >= a.extents {
				return -1
			}
			return e
		}
		w++
		if w >= int64(len(bitmap)) {
			return -1
		}
		word = bitmap[w]
	}
}

// AllocPages allocates n pages page-granularly, from the mixed-extent
// pool: pages come from the current mixed extent until it is exhausted,
// then the next wholly-free extent (deallocation cache first) is broken
// to refill the pool. Only under space pressure — no wholly-free extent
// anywhere — are other partial extents raided.
//
// Because the refill consumes whole extents from the same deallocation
// cache that feeds bulk allocations, the steady trickle of tree-node and
// row-page allocations shifts the cache's alignment relative to object
// boundaries — the drift that makes even constant-size objects fragment
// (§5.4) and keeps the database's curve climbing (§5.3).
func (a *Allocator) AllocPages(n int64) ([]PageRun, bool) {
	if n <= 0 {
		panic(fmt.Sprintf("db: AllocPages(%d)", n))
	}
	if a.freePages < n {
		return nil, false
	}
	pages := a.pagePages[:0]
	remaining := n
	for remaining > 0 {
		// Drain the current mixed extent.
		if a.mixed >= 0 {
			if mask := a.pfs[a.mixed]; mask != 0 {
				e := a.mixed
				for mask != 0 && remaining > 0 {
					p := bits.TrailingZeros8(mask)
					mask &^= 1 << uint(p)
					pages = append(pages, PageID(e*PagesPerExtent+int64(p)))
					remaining--
					a.freePages--
				}
				a.setPFS(e, mask)
				continue
			}
		}
		// Refill the pool from the deallocation cache / GAM scan.
		if e := a.nextFreeExtent(); e != -1 {
			a.takeFreeExtent(e)
			a.setPFS(e, 0xFF)
			a.mixed = e
			continue
		}
		// Space pressure: raid the nearest partial extent.
		pe := a.scanWrap(a.partial)
		if pe == -1 {
			panic("db: free-page accounting out of sync")
		}
		a.mixed = pe
	}
	a.pagePages = pages
	out := coalescePageRunsInto(a.pageRuns[:0], pages)
	if out != nil {
		a.pageRuns = out
	}
	return out, true
}

// AllocRequest allocates n pages as one client write request, with SQL
// Server's granularity split: the extent-aligned bulk of the request
// takes whole uniform extents (lowest GAM bit first) while the tail —
// and any shortfall when no whole extents remain — is filled page-
// granular from partial extents. This is why the size of client write
// requests shapes long-term fragmentation (§5.3: the systems converge to
// one fragment per 64 KB write request; §5.4: "modifying the size of the
// write requests ... changes long-term fragmentation behavior").
func (a *Allocator) AllocRequest(n int64) ([]PageRun, bool) {
	if n <= 0 {
		panic(fmt.Sprintf("db: AllocRequest(%d)", n))
	}
	if a.freePages < n {
		return nil, false
	}
	pages := a.reqPages[:0]
	remaining := n
	for remaining >= PagesPerExtent {
		e := a.nextFreeExtent()
		if e == -1 {
			break
		}
		a.takeFreeExtent(e)
		for p := int64(0); p < PagesPerExtent; p++ {
			pages = append(pages, PageID(e*PagesPerExtent+p))
		}
		a.freePages -= PagesPerExtent
		remaining -= PagesPerExtent
	}
	if remaining > 0 {
		runs, ok := a.AllocPages(remaining)
		if !ok {
			panic("db: AllocRequest tail failed after free-page check")
		}
		for _, r := range runs {
			for p := r.Start; p < r.End(); p++ {
				pages = append(pages, p)
			}
		}
	}
	a.reqPages = pages
	out := coalescePageRunsInto(a.reqRuns[:0], pages)
	if out != nil {
		a.reqRuns = out
	}
	return out, true
}

// FreePage returns one page to the pool, promoting its extent back to the
// GAM when all eight pages are free.
func (a *Allocator) FreePage(p PageID) {
	e := int64(p) / PagesPerExtent
	bit := uint8(1) << uint(int64(p)%PagesPerExtent)
	if a.gamGet(e) {
		panic(fmt.Sprintf("db: double free of page %d (extent already free)", p))
	}
	mask := a.pfs[e]
	if mask&bit != 0 {
		panic(fmt.Sprintf("db: double free of page %d", p))
	}
	mask |= bit
	a.freePages++
	if mask == 0xFF {
		a.setPFS(e, 0)
		a.reuse = append(a.reuse, e)
	} else {
		a.setPFS(e, mask)
	}
}

// FreeRuns frees every page of the given runs.
func (a *Allocator) FreeRuns(runs []PageRun) {
	for _, r := range runs {
		for p := r.Start; p < r.End(); p++ {
			a.FreePage(p)
		}
	}
}

// PartialExtents reports how many extents are partially used — a measure
// of page-level free-space scatter for the layout tool.
func (a *Allocator) PartialExtents() int { return a.partials }

// ReuseQueueLen reports the number of extents waiting in the
// deallocation cache.
func (a *Allocator) ReuseQueueLen() int { return len(a.reuse) - a.reuseHead }

// ResetReuse drains the deallocation cache back into the GAM bitmap and
// rewinds the scan cursor — the state a freshly created filegroup starts
// from. Used by table rebuilds.
func (a *Allocator) ResetReuse() {
	for _, e := range a.reuse[a.reuseHead:] {
		a.gamSet(e)
	}
	a.reuse = a.reuse[:0]
	a.reuseHead = 0
	a.cursor = 0
	a.mixed = -1
}

// CheckInvariants panics when free-page accounting disagrees with the
// bitmaps or the deallocation cache. Intended for tests.
func (a *Allocator) CheckInvariants() {
	queued := make(map[int64]bool)
	for _, e := range a.reuse[a.reuseHead:] {
		if queued[e] {
			panic(fmt.Sprintf("db: extent %d queued twice", e))
		}
		queued[e] = true
		if a.gamGet(e) {
			panic(fmt.Sprintf("db: extent %d both queued and GAM-free", e))
		}
		if a.pfs[e] != 0 {
			panic(fmt.Sprintf("db: extent %d both queued and partial", e))
		}
	}
	count := int64(len(queued)) * PagesPerExtent
	partials := 0
	for e := int64(0); e < a.extents; e++ {
		mask := a.pfs[e]
		if (mask != 0) != (a.partial[e/64]&(1<<uint(e%64)) != 0) {
			panic(fmt.Sprintf("db: extent %d partial bit disagrees with mask %#x", e, mask))
		}
		if mask != 0 {
			partials++
		}
		if a.gamGet(e) {
			if mask != 0 {
				panic(fmt.Sprintf("db: extent %d both free and partial", e))
			}
			count += PagesPerExtent
		} else {
			count += int64(bits.OnesCount8(mask))
		}
	}
	if partials != a.partials {
		panic(fmt.Sprintf("db: partial count %d != %d marked extents", a.partials, partials))
	}
	if count != a.freePages {
		panic(fmt.Sprintf("db: freePages %d != bitmap+queue sum %d", a.freePages, count))
	}
}
