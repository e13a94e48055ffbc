package db

import "sync"

// bufferPool is a small LRU cache of metadata pages (row pages and blob
// fragment-tree node pages). The paper's setup keeps table data cacheable
// by storing BLOBs out of row (§4.2: "allowing the table data to be kept
// in cache"); BLOB data pages stream through and are not cached.
//
// The pool carries its own mutex rather than relying on the store-level
// lock above the engine: Reset and HitRate are reachable from harness
// reporting paths that do NOT hold that lock (phase-separation resets
// while reader goroutines are mid-Access), and an unsynchronized reset
// racing an Access can corrupt the LRU list — unlinking an entry twice
// returns the same page slot to the list's head and tail at once.
type bufferPool struct {
	mu       sync.Mutex
	capacity int
	entries  map[PageID]*poolEntry
	head     *poolEntry // most recently used
	tail     *poolEntry // least recently used
	hits     int64
	misses   int64
}

type poolEntry struct {
	id         PageID
	prev, next *poolEntry
}

// newBufferPool builds a pool holding capacity pages. capacity <= 0 is
// a disabled pool: every access misses and nothing is retained, rather
// than silently rounding up to a one-page cache.
func newBufferPool(capacity int) *bufferPool {
	if capacity <= 0 {
		capacity = 0
	}
	return &bufferPool{capacity: capacity, entries: make(map[PageID]*poolEntry)}
}

// Access records a page touch and reports whether it was a cache hit.
// On miss the page is installed, evicting the LRU entry if needed.
func (bp *bufferPool) Access(id PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.capacity <= 0 {
		bp.misses++
		return false
	}
	if e, ok := bp.entries[id]; ok {
		bp.hits++
		bp.moveToFront(e)
		return true
	}
	bp.misses++
	e := &poolEntry{id: id}
	bp.entries[id] = e
	bp.pushFront(e)
	if len(bp.entries) > bp.capacity {
		bp.evict()
	}
	return false
}

// Invalidate drops freed pages (when their blob is deleted or rebuilt),
// under one lock acquisition for the whole list.
func (bp *bufferPool) Invalidate(ids []PageID) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if len(bp.entries) == 0 {
		return // churn with no reads yet: nothing cached to drop
	}
	for _, id := range ids {
		if e, ok := bp.entries[id]; ok {
			bp.unlink(e)
			delete(bp.entries, id)
		}
	}
}

func (bp *bufferPool) pushFront(e *poolEntry) {
	e.next = bp.head
	if bp.head != nil {
		bp.head.prev = e
	}
	bp.head = e
	if bp.tail == nil {
		bp.tail = e
	}
}

func (bp *bufferPool) unlink(e *poolEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		bp.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		bp.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (bp *bufferPool) moveToFront(e *poolEntry) {
	if bp.head == e {
		return
	}
	bp.unlink(e)
	bp.pushFront(e)
}

func (bp *bufferPool) evict() {
	if bp.tail == nil {
		return
	}
	victim := bp.tail
	bp.unlink(victim)
	delete(bp.entries, victim.id)
}

// Reset zeroes the hit/miss counters while keeping resident pages, so
// one experiment phase's hit rate is not blended with another's (a
// churn-phase measurement must exclude bulk-load misses). Residency is
// deliberately preserved: Reset separates accounting phases, it does
// not cool the cache.
func (bp *bufferPool) Reset() {
	bp.mu.Lock()
	bp.hits, bp.misses = 0, 0
	bp.mu.Unlock()
}

// HitRate returns the fraction of accesses that hit, or 0 before any
// access.
func (bp *bufferPool) HitRate() float64 {
	bp.mu.Lock()
	hits, misses := bp.hits, bp.misses
	bp.mu.Unlock()
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
