package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func TestEmpty(t *testing.T) {
	m := New[int, string](intLess)
	if m.Len() != 0 {
		t.Fatalf("Len = %d, want 0", m.Len())
	}
	if _, ok := m.Get(1); ok {
		t.Fatal("Get on empty map returned ok")
	}
	if m.Delete(1) {
		t.Fatal("Delete on empty map returned true")
	}
	if _, _, ok := m.Min(); ok {
		t.Fatal("Min on empty map returned ok")
	}
	if _, _, ok := m.Max(); ok {
		t.Fatal("Max on empty map returned ok")
	}
}

func TestPutGetDelete(t *testing.T) {
	m := New[int, int](intLess)
	const n = 1000
	for i := 0; i < n; i++ {
		if !m.Put(i, i*10) {
			t.Fatalf("Put(%d) reported existing", i)
		}
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	m.CheckInvariants()
	for i := 0; i < n; i++ {
		v, ok := m.Get(i)
		if !ok || v != i*10 {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", i, v, ok, i*10)
		}
	}
	// Overwrite does not grow.
	if m.Put(5, 999) {
		t.Fatal("Put of existing key reported new")
	}
	if v, _ := m.Get(5); v != 999 {
		t.Fatalf("overwrite lost: got %d", v)
	}
	if m.Len() != n {
		t.Fatalf("Len after overwrite = %d, want %d", m.Len(), n)
	}
	for i := 0; i < n; i += 2 {
		if !m.Delete(i) {
			t.Fatalf("Delete(%d) = false", i)
		}
	}
	m.CheckInvariants()
	if m.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", m.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := m.Get(i)
		if (i%2 == 0) == ok {
			t.Fatalf("Get(%d) present=%v, wrong", i, ok)
		}
	}
}

func TestRandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := NewDegree[int, int](3, intLess) // small degree exercises splits/merges
	ref := map[int]int{}
	for op := 0; op < 20000; op++ {
		k := rng.Intn(500)
		switch rng.Intn(3) {
		case 0, 1:
			v := rng.Int()
			m.Put(k, v)
			ref[k] = v
		case 2:
			got := m.Delete(k)
			_, want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, ref = %d", op, m.Len(), len(ref))
		}
	}
	m.CheckInvariants()
	for k, v := range ref {
		got, ok := m.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v; want %d,true", k, got, ok, v)
		}
	}
}

func TestAscendDescendOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New[int, int](intLess)
	keys := rng.Perm(777)
	for _, k := range keys {
		m.Put(k, k)
	}
	var asc []int
	m.Ascend(func(k, _ int) bool { asc = append(asc, k); return true })
	if !sort.IntsAreSorted(asc) {
		t.Fatal("Ascend not sorted")
	}
	if len(asc) != 777 {
		t.Fatalf("Ascend visited %d, want 777", len(asc))
	}
	var desc []int
	m.Descend(func(k, _ int) bool { desc = append(desc, k); return true })
	for i := range desc {
		if desc[i] != asc[len(asc)-1-i] {
			t.Fatalf("Descend[%d] = %d, want %d", i, desc[i], asc[len(asc)-1-i])
		}
	}
}

func TestAscendEarlyStop(t *testing.T) {
	m := New[int, int](intLess)
	for i := 0; i < 100; i++ {
		m.Put(i, i)
	}
	count := 0
	m.Ascend(func(k, _ int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("visited %d, want 10", count)
	}
}

func TestAscendFrom(t *testing.T) {
	m := NewDegree[int, int](3, intLess)
	for i := 0; i < 200; i += 2 {
		m.Put(i, i)
	}
	for _, from := range []int{-5, 0, 1, 2, 99, 100, 198, 199, 500} {
		var got []int
		m.AscendFrom(from, func(k, _ int) bool { got = append(got, k); return true })
		var want []int
		for i := 0; i < 200; i += 2 {
			if i >= from {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("AscendFrom(%d): %d keys, want %d", from, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("AscendFrom(%d)[%d] = %d, want %d", from, i, got[i], want[i])
			}
		}
	}
}

func TestFloorCeiling(t *testing.T) {
	m := New[int, string](intLess)
	for _, k := range []int{10, 20, 30, 40} {
		m.Put(k, "x")
	}
	cases := []struct {
		q         int
		floor     int
		floorOK   bool
		ceil      int
		ceilingOK bool
	}{
		{5, 0, false, 10, true},
		{10, 10, true, 10, true},
		{15, 10, true, 20, true},
		{40, 40, true, 40, true},
		{45, 40, true, 0, false},
	}
	for _, c := range cases {
		fk, _, fok := m.Floor(c.q)
		if fok != c.floorOK || (fok && fk != c.floor) {
			t.Errorf("Floor(%d) = %d,%v; want %d,%v", c.q, fk, fok, c.floor, c.floorOK)
		}
		ck, _, cok := m.Ceiling(c.q)
		if cok != c.ceilingOK || (cok && ck != c.ceil) {
			t.Errorf("Ceiling(%d) = %d,%v; want %d,%v", c.q, ck, cok, c.ceil, c.ceilingOK)
		}
	}
}

func TestMinMax(t *testing.T) {
	m := New[int, int](intLess)
	for _, k := range []int{50, 10, 90, 30} {
		m.Put(k, k)
	}
	if k, _, _ := m.Min(); k != 10 {
		t.Fatalf("Min = %d, want 10", k)
	}
	if k, _, _ := m.Max(); k != 90 {
		t.Fatalf("Max = %d, want 90", k)
	}
}

func TestClear(t *testing.T) {
	m := New[int, int](intLess)
	for i := 0; i < 50; i++ {
		m.Put(i, i)
	}
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d", m.Len())
	}
	if _, ok := m.Get(10); ok {
		t.Fatal("Get after Clear returned ok")
	}
}

func TestHeightGrowth(t *testing.T) {
	m := NewDegree[int, int](2, intLess)
	if m.Height() != 0 {
		t.Fatalf("empty height = %d", m.Height())
	}
	for i := 0; i < 1000; i++ {
		m.Put(i, i)
	}
	h := m.Height()
	if h < 5 || h > 12 {
		t.Fatalf("height %d outside plausible balanced range for degree-2/1000 keys", h)
	}
}

// Property: a sequence of random operations leaves the tree equivalent to a
// reference map and structurally valid.
func TestQuickMapEquivalence(t *testing.T) {
	f := func(ops []int16) bool {
		m := NewDegree[int, int](3, intLess)
		ref := map[int]int{}
		for i, raw := range ops {
			k := int(raw) % 64
			if raw >= 0 {
				m.Put(k, i)
				ref[k] = i
			} else {
				m.Delete(-k)
				delete(ref, -k)
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := m.Get(k)
			if !ok || got != v {
				return false
			}
		}
		m.CheckInvariants()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCompositeKeys(t *testing.T) {
	type key struct{ size, off int64 }
	less := func(a, b key) bool {
		if a.size != b.size {
			return a.size < b.size
		}
		return a.off < b.off
	}
	m := New[key, struct{}](less)
	m.Put(key{64, 100}, struct{}{})
	m.Put(key{64, 50}, struct{}{})
	m.Put(key{128, 10}, struct{}{})
	k, _, ok := m.Ceiling(key{64, 0})
	if !ok || k != (key{64, 50}) {
		t.Fatalf("Ceiling = %+v, want {64 50}", k)
	}
	k, _, ok = m.Ceiling(key{65, 0})
	if !ok || k != (key{128, 10}) {
		t.Fatalf("Ceiling = %+v, want {128 10}", k)
	}
}

// TestRekeyInPlace rekeys a key held in a leaf and a separator key held
// in an inner node to order-preserving values, then checks lookups, the
// ascending order and the tree's invariants.
func TestRekeyInPlace(t *testing.T) {
	m := NewDegree[int, int](2, intLess)
	for i := 0; i < 200; i++ {
		m.Put(i*10, i)
	}
	if m.root.leaf() {
		t.Fatal("tree too small to have an inner node")
	}
	leafKey := m.minItem(m.root).key
	sepKey := m.root.items[0].key
	for _, k := range []int{leafKey, sepKey} {
		if !m.Rekey(k, k+5, -k) {
			t.Fatalf("Rekey(%d) reported missing", k)
		}
		if m.Has(k) {
			t.Fatalf("old key %d still present", k)
		}
		if v, ok := m.Get(k + 5); !ok || v != -k {
			t.Fatalf("Get(%d) = %d, %v; want %d", k+5, v, ok, -k)
		}
		m.CheckInvariants()
	}
	if m.Rekey(7, 8, 0) {
		t.Fatal("Rekey of a missing key reported present")
	}
	if m.Len() != 200 {
		t.Fatalf("Len = %d, want 200", m.Len())
	}
	var keys []int
	m.Ascend(func(k, _ int) bool { keys = append(keys, k); return true })
	if !sort.IntsAreSorted(keys) || keys[0] != leafKey+5 {
		t.Fatalf("ascending keys start %v", keys[:3])
	}
}
