package guard

import (
	"sync"
	"testing"
)

// TestLockedSerializes: increments from eight goroutines through Lock
// are not lost, and New's value is the one Lock first returns. Run
// under -race in CI.
func TestLockedSerializes(t *testing.T) {
	l := New(map[string]int{"n": 5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				(*l.Lock())["n"]++
				l.Unlock()
			}
		}()
	}
	wg.Wait()
	if n := (*l.Lock())["n"]; n != 8005 {
		t.Fatalf("n = %d, want 8005", n)
	}
	l.Unlock()
}
