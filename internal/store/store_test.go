package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestPutGetDelete(t *testing.T) {
	s := New[string](Config{})
	if _, err := s.Put("a", "alpha", 5); err != nil {
		t.Fatal(err)
	}
	v, ver, ok := s.Get("a")
	if !ok || v != "alpha" || ver == 0 {
		t.Fatalf("Get(a) = %q, %d, %v", v, ver, ok)
	}
	if _, err := s.Put("a", "beta", 4); err != nil {
		t.Fatal(err)
	}
	if v, _, _ := s.Get("a"); v != "beta" {
		t.Fatalf("after replace Get(a) = %q", v)
	}
	if n := s.Stats().Entries; n != 1 {
		t.Fatalf("Entries = %d, want 1 (replace must not duplicate)", n)
	}
	if st := s.Stats(); st.Bytes != 4 {
		t.Fatalf("Bytes = %d, want 4 after replacement", st.Bytes)
	}
	if !s.Delete("a") || s.Delete("a") {
		t.Fatal("Delete should report presence exactly once")
	}
	if _, _, ok := s.Get("a"); ok {
		t.Fatal("Get after Delete succeeded")
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("empty store stats = %+v", st)
	}
}

func TestMaxEntriesRejectsNewKeepsReplacements(t *testing.T) {
	s := New[int](Config{MaxEntries: 2})
	if _, err := s.Put("one", 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("two", 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("three", 3, 1); !errors.Is(err, ErrFull) {
		t.Fatalf("over-cap Put err = %v, want ErrFull", err)
	}
	if _, err := s.Put("two", 22, 1); err != nil {
		t.Fatalf("replacement at cap err = %v", err)
	}
	if n := s.Stats().Entries; n != 2 {
		t.Fatalf("Entries = %d, want 2", n)
	}
	s.Delete("one")
	if _, err := s.Put("three", 3, 1); err != nil {
		t.Fatal("slot freed by Delete was not reusable")
	}
}

func TestLRUEviction(t *testing.T) {
	s := New[int](Config{MaxBytes: 100, Policy: EvictLRU})
	for i := 0; i < 4; i++ {
		if _, err := s.Put(fmt.Sprintf("k%d", i), i, 25); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 is the LRU, then overflow the budget.
	s.Get("k0")
	if _, err := s.Put("big", 99, 30); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k1"); ok {
		t.Fatal("k1 should have been evicted as least recently used")
	}
	if _, _, ok := s.Get("k0"); !ok {
		t.Fatal("recently used k0 was evicted")
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatalf("stats = %+v, want evictions > 0", st)
	}
	if st.Bytes > 100 {
		t.Fatalf("bytes = %d exceeds budget after eviction", st.Bytes)
	}
}

// TestLRUEvictionIsStoreWide pins eviction to the least recently used
// entry of the whole store: d0 and d8 would share a shard under an
// eight-way FNV-1a split, and d0 is refreshed just before d8 arrives,
// so the victim is d1, the oldest entry anywhere.
func TestLRUEvictionIsStoreWide(t *testing.T) {
	s := New[int](Config{MaxBytes: 80})
	for i := 0; i < 8; i++ {
		if _, err := s.Put(fmt.Sprintf("d%d", i), i, 10); err != nil {
			t.Fatal(err)
		}
	}
	s.Get("d0")
	if _, err := s.Put("d8", 8, 10); err != nil {
		t.Fatal(err)
	}
	var order []string
	s.Range(func(k string, _ int, _ int64, _ uint64) bool {
		order = append(order, k)
		return true
	})
	if got := fmt.Sprint(order); got != "[d8 d0 d7 d6 d5 d4 d3 d2]" {
		t.Fatalf("resident after overflow, MRU first = %s, want d1 evicted", got)
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes != 80 {
		t.Fatalf("stats = %+v, want one eviction and 80 bytes", st)
	}
}

// TestWholeBudgetAdmitsLargeEntry: an entry is refused as too large only
// when it exceeds all of MaxBytes, not some fraction of it.
func TestWholeBudgetAdmitsLargeEntry(t *testing.T) {
	s := New[int](Config{MaxBytes: 1 << 20})
	if _, err := s.Put("big", 1, 200<<10); err != nil {
		t.Fatalf("Put of 200 KB under a 1 MiB budget: %v", err)
	}
	if _, err := s.Put("whole", 2, 1<<20); err != nil {
		t.Fatalf("Put of exactly MaxBytes: %v", err)
	}
	if _, _, ok := s.Get("big"); ok {
		t.Fatal("big should have been evicted to admit an entry of the whole budget")
	}
	if _, err := s.Put("over", 3, 1<<20+1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Put over MaxBytes err = %v, want ErrTooLarge", err)
	}
}

func TestRejectPolicyAndTooLarge(t *testing.T) {
	s := New[int](Config{MaxBytes: 100, Policy: EvictReject})
	if _, err := s.Put("a", 1, 80); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", 2, 30); !errors.Is(err, ErrFull) {
		t.Fatalf("over-budget Put err = %v, want ErrFull", err)
	}
	if _, err := s.Put("huge", 3, 200); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Put err = %v, want ErrTooLarge", err)
	}
	// Replacing the resident entry with a smaller one must succeed.
	if _, err := s.Put("a", 11, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("b", 2, 30); err != nil {
		t.Fatal(err)
	}
}

func TestRange(t *testing.T) {
	s := New[int](Config{})
	want := map[string]int{"a": 1, "b": 2, "c": 3}
	vers := map[string]uint64{}
	for k, v := range want {
		vers[k], _ = s.Put(k, v, int64(v))
	}
	got := map[string]int{}
	var bytes int64
	s.Range(func(k string, v int, size int64, ver uint64) bool {
		got[k] = v
		bytes += size
		if ver != vers[k] {
			t.Errorf("Range(%s) version %d, want the Put's %d", k, ver, vers[k])
		}
		return true
	})
	if len(got) != len(want) || bytes != 6 {
		t.Fatalf("Range visited %v (%d bytes)", got, bytes)
	}
	n := 0
	s.Range(func(string, int, int64, uint64) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Range ignored early stop: visited %d", n)
	}
}

// TestDeleteIf pins the conditional delete the idle janitor relies on:
// the condition sees the currently stored value under the store lock,
// so a stale snapshot cannot delete a replacement entry.
func TestDeleteIf(t *testing.T) {
	s := New[int](Config{})
	if _, err := s.Put("k", 1, 10); err != nil {
		t.Fatal(err)
	}
	if s.DeleteIf("k", func(v int, size int64) bool { return v == 2 }) {
		t.Fatal("DeleteIf removed an entry its condition rejected")
	}
	if _, _, ok := s.Get("k"); !ok {
		t.Fatal("entry vanished after a refused DeleteIf")
	}
	if !s.DeleteIf("k", func(v int, size int64) bool { return v == 1 && size == 10 }) {
		t.Fatal("DeleteIf refused a matching entry")
	}
	if s.DeleteIf("k", nil) {
		t.Fatal("DeleteIf on a missing key reported a removal")
	}
	if n := s.Stats().Entries; n != 0 {
		t.Fatalf("Entries = %d after delete, want 0", n)
	}
}

// TestVersions pins the monotonic-version contract the replication
// layer leans on: Put assigns strictly increasing versions per key
// (even across Delete + re-Put), PutAt mirrors an explicit version and
// skips stale writes, and the counter never goes backwards past a
// mirrored version.
func TestVersions(t *testing.T) {
	s := New[string](Config{})
	v1, err := s.Put("doc", "one", 3)
	if err != nil || v1 == 0 {
		t.Fatalf("Put = (%d, %v), want a nonzero version", v1, err)
	}
	v2, _ := s.Put("doc", "two", 3)
	if v2 <= v1 {
		t.Fatalf("replacement version %d not above %d", v2, v1)
	}
	if val, got, ok := s.Get("doc"); !ok || val != "two" || got != v2 {
		t.Fatalf("Get(doc) = (%q, %d, %v), want (two, %d, true)", val, got, ok, v2)
	}
	s.Delete("doc")
	if _, got, ok := s.Get("doc"); ok || got != 0 {
		t.Fatalf("Get after Delete = (%d, %v), want (0, false)", got, ok)
	}
	v3, _ := s.Put("doc", "three", 5)
	if v3 <= v2 {
		t.Fatalf("re-Put after Delete got version %d, want above %d", v3, v2)
	}

	// Mirror a remote version well above the local counter.
	mv, err := s.PutAt("mirrored", "replica copy", 12, v3+100)
	if err != nil || mv != v3+100 {
		t.Fatalf("PutAt = (%d, %v), want %d", mv, err, v3+100)
	}
	// A stale mirror write is skipped: the resident entry wins.
	if got, _ := s.PutAt("mirrored", "stale copy", 10, v3+50); got != v3+100 {
		t.Fatalf("stale PutAt resulted in version %d, want resident %d", got, v3+100)
	}
	if val, ver, _ := s.Get("mirrored"); val != "replica copy" || ver != v3+100 {
		t.Fatalf("stale PutAt replaced the entry: (%q, %d)", val, ver)
	}
	// The counter cleared the mirrored version: later Puts stay above.
	if v4, _ := s.Put("doc", "four", 5); v4 <= v3+100 {
		t.Fatalf("post-mirror Put version %d, want above %d", v4, v3+100)
	}
	// PutAt with a zero version falls back to self-assignment.
	if v, err := s.PutAt("self", "x", 1, 0); err != nil || v <= v3+100 {
		t.Fatalf("PutAt(0) = (%d, %v), want a fresh counter version", v, err)
	}
}

// TestRangeOrderWithinShard pins down the snapshot order Range promises
// across the whole store: most recently used first (the LRU list
// front), with Get refreshing recency.
func TestRangeOrderWithinShard(t *testing.T) {
	s := New[int](Config{})
	for i, k := range []string{"a", "b", "c"} {
		if _, err := s.Put(k, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	s.Get("a") // now a is MRU; order front→back is a, c, b
	var order []string
	s.Range(func(k string, _ int, _ int64, _ uint64) bool {
		order = append(order, k)
		return true
	})
	if fmt.Sprint(order) != "[a c b]" {
		t.Fatalf("Range order = %v, want [a c b] (MRU first)", order)
	}
}

// TestRangeUnderConcurrentMutation races Range passes against Put and
// Delete churn (run under -race). Each pass must be internally
// consistent: no key visited twice, every stable (never-mutated) key
// present exactly once with its original value and size, and no
// torn entries (value/size must match what some Put stored).
func TestRangeUnderConcurrentMutation(t *testing.T) {
	s := New[int](Config{})
	stable := map[string]int{}
	for i := 0; i < 16; i++ {
		k := fmt.Sprintf("stable-%d", i)
		stable[k] = i
		if _, err := s.Put(k, i, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := fmt.Sprintf("hot-%d", (g*5+i)%24)
				if i%3 == 0 {
					s.Delete(k)
				} else {
					// Value and size move together; a torn read
					// would surface as a mismatched pair below.
					s.Put(k, i, int64(i))
				}
			}
		}(g)
	}
	for pass := 0; pass < 300; pass++ {
		seen := map[string]bool{}
		s.Range(func(k string, v int, size int64, _ uint64) bool {
			if seen[k] {
				t.Errorf("pass %d: key %q visited twice in one Range", pass, k)
			}
			seen[k] = true
			if want, ok := stable[k]; ok {
				if v != want || size != int64(want+1) {
					t.Errorf("stable key %q = (%d, %d), want (%d, %d)", k, v, size, want, want+1)
				}
			} else if size != int64(v) {
				t.Errorf("torn entry %q: value %d but size %d", k, v, size)
			}
			return true
		})
		for k := range stable {
			if !seen[k] {
				t.Errorf("pass %d: stable key %q missing from Range", pass, k)
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestConcurrentAccess hammers one store from many goroutines under
// -race: puts, gets, deletes and stats on overlapping keys.
func TestConcurrentAccess(t *testing.T) {
	s := New[int](Config{MaxBytes: 4096, MaxEntries: 64})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%32)
				switch i % 4 {
				case 0:
					s.Put(key, i, 16)
				case 1:
					s.Get(key)
				case 2:
					s.Delete(key)
				default:
					s.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	n := 0
	s.Range(func(string, int, int64, uint64) bool { n++; return true })
	if st.Entries != n {
		t.Fatalf("entry accounting drifted: stats %d vs %d ranged", st.Entries, n)
	}
	if st.Entries > 64 || st.Bytes > 4096 {
		t.Fatalf("budgets exceeded: %+v", st)
	}
}
