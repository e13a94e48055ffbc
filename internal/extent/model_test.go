package extent

import (
	"math/rand"
	"slices"
	"testing"
)

// clusterModel is the naive reference for FreeIndex: one bool per
// cluster, with every policy answered by a linear scan of its maximal
// free runs.
type clusterModel []bool

func (m clusterModel) runs() []Run {
	var out []Run
	for c := int64(0); c < int64(len(m)); {
		if !m[c] {
			c++
			continue
		}
		s := c
		for c < int64(len(m)) && m[c] {
			c++
		}
		out = append(out, Run{Start: s, Len: c - s})
	}
	return out
}

func (m clusterModel) set(r Run, free bool) {
	for c := r.Start; c < r.End(); c++ {
		if m[c] == free {
			panic("extent model: cluster already in that state")
		}
		m[c] = free
	}
}

// firstFit returns the first run, in offset order, that pred accepts.
func (m clusterModel) firstFit(pred func(Run) bool) (Run, bool) {
	for _, r := range m.runs() {
		if pred(r) {
			return r, true
		}
	}
	return Run{}, false
}

// bySize returns the smallest run of at least n clusters (largest when
// largest is set), ranked by (length, offset) like the size index.
func (m clusterModel) bySize(n int64, largest bool) (Run, bool) {
	var best Run
	found := false
	for _, r := range m.runs() {
		if r.Len < n {
			continue
		}
		better := r.Len < best.Len || r.Len == best.Len && r.Start < best.Start
		if largest {
			better = r.Len > best.Len || r.Len == best.Len && r.Start > best.Start
		}
		if !found || better {
			best, found = r, true
		}
	}
	return best, found
}

// TestFreeIndexAgainstClusterModel runs a seeded mix of every Take*
// policy, TakeAt, ExtendAt (at a free run's first cluster, inside a free
// run, and at arbitrary clusters) and Free against the per-cluster
// model. Every returned run must be the model's answer, and after every
// step the index must hold exactly the model's maximal free runs.
func TestFreeIndexAgainstClusterModel(t *testing.T) {
	const volume = 2048
	rng := rand.New(rand.NewSource(16))
	f := NewFreeIndex()
	m := make(clusterModel, volume)
	f.Free(Run{Start: 0, Len: volume})
	m.set(Run{Start: 0, Len: volume}, true)
	var held []Run
	var cursor int64
	// pickStart returns a free run's first cluster, a cluster inside a
	// free run, or any cluster, so ExtendAt and TakeAt see both the
	// in-place prefix shrink, the split and the refusal.
	pickStart := func() int64 {
		runs := m.runs()
		if len(runs) == 0 || rng.Intn(4) == 0 {
			return rng.Int63n(volume)
		}
		r := runs[rng.Intn(len(runs))]
		if rng.Intn(2) == 0 || r.Len == 1 {
			return r.Start
		}
		return r.Start + 1 + rng.Int63n(r.Len-1)
	}
	for step := 0; step < 6000; step++ {
		if rng.Intn(100) < 45 && len(held) > 0 {
			i := rng.Intn(len(held))
			r := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			f.Free(r)
			m.set(r, true)
		} else {
			n := 1 + rng.Int63n(48)
			var got, want Run
			var ok, wantOK bool
			switch op := rng.Intn(9); op {
			case 0:
				got, ok = f.TakeFirstFit(n)
				want, wantOK = m.firstFit(func(r Run) bool { return r.Len >= n })
			case 1:
				limit := rng.Int63n(volume)
				got, ok = f.TakeFirstFitBelow(n, limit)
				want, wantOK = m.firstFit(func(r Run) bool { return r.Start < limit && r.Len >= n })
			case 2:
				got, ok = f.TakeBestFit(n)
				want, wantOK = m.bySize(n, false)
			case 3:
				got, ok = f.TakeWorstFit(n)
				want, wantOK = m.bySize(n, true)
			case 4:
				var next int64
				got, next, ok = f.TakeNextFit(n, cursor)
				want, wantOK = m.firstFit(func(r Run) bool { return r.Start >= cursor && r.Len >= n })
				if !wantOK {
					want, wantOK = m.firstFit(func(r Run) bool { return r.Len >= n })
				}
				if ok {
					cursor = next
				}
			case 5:
				got, ok = f.TakeUpTo(n)
				want, wantOK = m.bySize(1, true)
				want.Len = min(want.Len, n)
			case 6:
				start := pickStart()
				got, ok = f.TakeAt(start, n)
				want = Run{Start: start, Len: n}
				wantOK = want.End() <= volume && !slices.Contains(m[start:want.End()], false)
			default:
				start := pickStart()
				got, ok = f.ExtendAt(start, n)
				want = Run{Start: start}
				for want.Len < n && want.End() < volume && m[want.End()] {
					want.Len++
				}
				wantOK = want.Len > 0
			}
			if ok != wantOK || ok && got.Start != want.Start {
				t.Fatalf("step %d: got %v ok=%v, model %v ok=%v", step, got, ok, want, wantOK)
			}
			if ok {
				if got.Len != min(want.Len, n) {
					t.Fatalf("step %d: got %v, model %v of at most %d", step, got, want, n)
				}
				m.set(got, false)
				held = append(held, got)
			}
		}
		f.CheckInvariants()
		if got, want := f.Runs(), m.runs(); !slices.Equal(got, want) {
			t.Fatalf("step %d: index runs %v, model %v", step, got, want)
		}
	}
}
