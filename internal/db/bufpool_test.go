package db

import (
	"sync"
	"testing"
)

// TestBufferPoolConcurrentReset is a -race regression test: Reset and
// HitRate are reachable from harness reporting paths that do not hold
// the store-level lock, so the pool must synchronize internally. Before
// the pool carried its own mutex, a Reset racing an Access could tear
// the counters and an Invalidate racing an Access could unlink the same
// LRU entry twice — returning one page slot to the list's head and tail
// at once.
func TestBufferPoolConcurrentReset(t *testing.T) {
	bp := newBufferPool(8)
	var wg sync.WaitGroup
	const iters = 2000
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			bp.Access(PageID(i % 16))
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			bp.Reset()
			_ = bp.HitRate()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			bp.Invalidate([]PageID{PageID(i % 16)})
		}
	}()
	wg.Wait()
	// The list must still be consistent: every resident page reachable
	// exactly once from the head, tail agreeing with the walk.
	seen := map[PageID]bool{}
	var last *poolEntry
	for e := bp.head; e != nil; e = e.next {
		if seen[e.id] {
			t.Fatalf("page %d linked twice", e.id)
		}
		seen[e.id] = true
		last = e
	}
	if len(seen) != len(bp.entries) {
		t.Fatalf("LRU walk saw %d entries, index holds %d", len(seen), len(bp.entries))
	}
	if bp.tail != last {
		t.Fatal("tail does not terminate the LRU list")
	}
}

// TestBufferPoolResetSeparatesPhases pins the phase-separation
// contract: Reset zeroes the counters but keeps pages resident, so a
// post-reset phase's hit rate reflects only its own accesses.
func TestBufferPoolResetSeparatesPhases(t *testing.T) {
	bp := newBufferPool(8)
	// "Bulk load": all misses.
	for i := PageID(0); i < 4; i++ {
		if bp.Access(i) {
			t.Fatalf("page %d hit on first touch", i)
		}
	}
	if bp.HitRate() != 0 {
		t.Fatalf("bulk-phase hit rate = %.2f", bp.HitRate())
	}
	bp.Reset()
	// "Churn": every page resident, all hits — the bulk misses must
	// not dilute this phase's rate.
	for i := PageID(0); i < 4; i++ {
		if !bp.Access(i) {
			t.Fatalf("page %d missed after reset kept residency", i)
		}
	}
	if bp.HitRate() != 1 {
		t.Fatalf("churn-phase hit rate = %.2f, want 1 (bulk misses excluded)", bp.HitRate())
	}
}

// TestBufferPoolDisabled pins the capacity guard: capacity <= 0 is a
// disabled pool — every access misses, nothing is retained, and the
// LRU list stays empty instead of silently becoming a one-page cache.
func TestBufferPoolDisabled(t *testing.T) {
	for _, capacity := range []int{0, -3} {
		bp := newBufferPool(capacity)
		for round := 0; round < 2; round++ {
			if bp.Access(7) {
				t.Fatalf("capacity %d: hit on a disabled pool", capacity)
			}
		}
		if len(bp.entries) != 0 || bp.head != nil || bp.tail != nil {
			t.Fatalf("capacity %d: disabled pool retained pages", capacity)
		}
		if bp.HitRate() != 0 {
			t.Fatalf("capacity %d: hit rate = %.2f", capacity, bp.HitRate())
		}
	}
}

// TestBufferPoolLRUEviction pins the eviction order across Reset: the
// least recently used page leaves first, and Reset does not disturb
// recency.
func TestBufferPoolLRUEviction(t *testing.T) {
	bp := newBufferPool(2)
	bp.Access(1)
	bp.Access(2)
	bp.Access(1) // 2 is now LRU
	bp.Reset()
	bp.Access(3) // evicts 2
	if !bp.Access(1) {
		t.Fatal("recently used page evicted")
	}
	if bp.Access(2) {
		t.Fatal("LRU page survived eviction")
	}
}
