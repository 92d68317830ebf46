package cluster

import (
	"fmt"
	"testing"
)

// TestAnswerCacheTombstone pins the delete race: an answer that was
// in flight when the document was deleted (it carries the pre-delete
// version) must not re-populate the cache, while a legitimate
// re-registration (necessarily at a higher version) revives it.
func TestAnswerCacheTombstone(t *testing.T) {
	c := newAnswerCache(8)
	c.put("d", "q", 5, []byte("v5 answer"))
	if _, ok := c.get("d", "q"); !ok {
		t.Fatal("cached answer not served")
	}
	c.forget("d") // DELETE through the router
	if _, ok := c.get("d", "q"); ok {
		t.Fatal("deleted document still served from cache")
	}
	// The late in-flight answer arrives at the dead version: rejected.
	c.put("d", "q", 5, []byte("v5 answer"))
	if _, ok := c.get("d", "q"); ok {
		t.Fatal("late in-flight answer re-populated the cache after delete")
	}
	// Same for a version-bump echo at or below the tombstone.
	c.bump("d", 5)
	c.put("d", "q", 5, []byte("v5 answer"))
	if _, ok := c.get("d", "q"); ok {
		t.Fatal("stale bump cleared the tombstone")
	}
	// A re-registration at a higher version revives the name.
	c.bump("d", 6)
	c.put("d", "q", 6, []byte("v6 answer"))
	if body, ok := c.get("d", "q"); !ok || string(body) != "v6 answer" {
		t.Fatalf("re-registered document not served: %q, %v", body, ok)
	}
}

// TestAnswerCacheTrimmedWatermark: a watermark or tombstone the bounds
// drop must not let a late in-flight answer, older than the version the
// router acknowledged, into the cache — it used to find no watermark,
// set one at its own version and be served from then on. Answers newer
// than what was dropped still fill the cache.
func TestAnswerCacheTrimmedWatermark(t *testing.T) {
	// churn registers (and, with del, deletes) other names until gone.
	churn := func(c *answerCache, del bool, gone func() bool) {
		t.Helper()
		for i := 0; !gone(); i++ {
			if i == 10000 {
				t.Fatal("churn never dropped the entry")
			}
			c.bump(fmt.Sprintf("other-%d", i), 1)
			if del {
				c.forget(fmt.Sprintf("other-%d", i))
			}
		}
	}
	c := newAnswerCache(1)
	c.bump("x", 5) // a registration through the router, acknowledged at 5
	churn(c, false, func() bool {
		_, ok := c.state.Lock().latest["x"]
		c.state.Unlock()
		return !ok
	})
	c.put("x", "q", 4, []byte("v4 answer")) // in flight since before the registration
	if body, ok := c.get("x", "q"); ok {
		t.Fatalf("served %q after version 5 was acknowledged", body)
	}
	c.put("x", "q", 6, []byte("v6 answer"))
	if body, ok := c.get("x", "q"); !ok || string(body) != "v6 answer" {
		t.Fatalf("newer answer not served after the trim: %q, %v", body, ok)
	}

	c = newAnswerCache(1)
	c.put("y", "q", 7, []byte("v7 answer"))
	c.forget("y") // tombstone at 7
	churn(c, true, func() bool {
		_, ok := c.state.Lock().dead["y"]
		c.state.Unlock()
		return !ok
	})
	c.put("y", "q", 7, []byte("v7 answer"))
	if body, ok := c.get("y", "q"); ok {
		t.Fatalf("deleted document served %q after its tombstone was trimmed", body)
	}
}

// TestAnswerCacheBounds pins the memory bounds: the LRU respects its
// capacity, and the version-watermark and tombstone maps stay bounded
// under unbounded name churn.
func TestAnswerCacheBounds(t *testing.T) {
	c := newAnswerCache(4)
	for i := 0; i < 100; i++ {
		doc := fmt.Sprintf("doc-%d", i)
		c.put(doc, "q", uint64(i+1), []byte("x"))
		c.forget(doc)
	}
	st := c.stats()
	if st.Entries > 4 {
		t.Fatalf("LRU holds %d entries past capacity 4", st.Entries)
	}
	s := c.state.Lock()
	latest, dead := len(s.latest), len(s.dead)
	c.state.Unlock()
	if latest > 4*c.cap+1 {
		t.Fatalf("latest map grew to %d entries under name churn", latest)
	}
	if dead > 4*c.cap+1 {
		t.Fatalf("dead map grew to %d entries under name churn", dead)
	}
}
