package db

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// allocPolicyDigest is the digest of TestAllocatorPolicyDigest's seeded
// sequence. It pins the allocator's policy — the next-fit cursor, the
// mixed-extent pool, the partial-extent raid under pressure and the
// deallocation queue's FIFO order — so a change to the allocator's data
// structures cannot move a single returned page unnoticed. Change it only
// with a change that is meant to alter the simulated layout, and say why.
const allocPolicyDigest uint64 = 0xbe9263fa1059c0d0

// TestAllocatorPolicyDigest drives a small Allocator through a seeded mix
// of AllocRequest, AllocPages, page-by-page and run-wise frees and the
// occasional ResetReuse, checks the invariants after every step, and
// hashes everything observable: the runs each call returns (and whether
// it failed), FreePages, PartialExtents and ReuseQueueLen.
func TestAllocatorPolicyDigest(t *testing.T) {
	const extents = 96
	a := NewAllocator(extents)
	rng := rand.New(rand.NewSource(16))
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var live [][]PageRun
	fails := 0
	keep := func(runs []PageRun, ok bool) {
		if !ok {
			fails++
			put(-1)
			return
		}
		put(int64(len(runs)))
		for _, r := range runs {
			put(int64(r.Start))
			put(r.Len)
		}
		live = append(live, append([]PageRun(nil), runs...))
	}
	for step := 0; step < 20000; step++ {
		// Steer occupancy through a cycle of targets so the sequence
		// spends time both with wholly free extents to spare and under
		// space pressure, where AllocPages raids partial extents.
		target := []int64{30, 60, 90, 99}[(step/1000)%4]
		allocPct := 35
		if used := 100 - 100*a.FreePages()/(extents*PagesPerExtent); used < target {
			allocPct = 65
		}
		switch op := rng.Intn(100); {
		case op < allocPct*3/5:
			keep(a.AllocRequest(1 + rng.Int63n(3*PagesPerExtent)))
		case op < allocPct:
			keep(a.AllocPages(1 + rng.Int63n(PagesPerExtent+4)))
		case op < 98:
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			runs := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			if rng.Intn(2) == 0 {
				a.FreeRuns(runs)
			} else {
				for _, r := range runs {
					for p := r.Start; p < r.End(); p++ {
						a.FreePage(p)
					}
				}
			}
		default:
			a.ResetReuse()
		}
		a.CheckInvariants()
		put(a.FreePages())
		put(int64(a.PartialExtents()))
		put(int64(a.ReuseQueueLen()))
	}
	if fails == 0 {
		t.Fatal("the sequence never ran out of space; the pressure path is untested")
	}
	if got := h.Sum64(); got != allocPolicyDigest {
		t.Fatalf("allocator policy digest = %#x, want %#x", got, allocPolicyDigest)
	}
}
