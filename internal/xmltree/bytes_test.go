package xmltree

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The probe documents of the bytes-per-node bound: n empty elements, the
// densest document in nodes per byte, and n items with an id attribute
// and two text-bearing children, the shape of the serving benchmarks'.
func emptyElements(n int) string {
	return "<r>" + strings.Repeat("<a/>", n) + "</r>"
}

func itemShaped(n int) string {
	var b strings.Builder
	b.WriteString("<site>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `<item id="item%d"><name>Item %d</name><price>%d.50</price></item>`, i, i, i%90)
	}
	b.WriteString("</site>")
	return strings.Clone(b.String()) // the builder's room to spare is not the source's

}

// liveHeap is the heap in use once the garbage collector has run.
func liveHeap() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// maxBytesPerNode bounds what a parsed document holds per node beyond its
// source: the columns (type 1 B; parent, nextsibling and name label 4 B
// each; data offset and length 8 B; subtree end and content count 8 B)
// come to 29 B, an element's posting-list entry to 4 B more, and the
// rest is the columns' room to spare.
const maxBytesPerNode = 36

// bytesTolerance is how far Document.Bytes may be from the live heap a
// parse adds, source included: the small tables it estimates and the
// allocator's rounding.
const bytesTolerance = 0.05

// TestBytesPerNode measures the live heap ParseString adds per node on
// the probe documents, and holds Document.Bytes to it. The race
// detector's own bookkeeping would be counted too, so it skips there.
func TestBytesPerNode(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping is live heap too")
	}
	for name, gen := range map[string]func(int) string{"<a/>": emptyElements, "item": itemShaped} {
		start := liveHeap()
		src := gen(100_000)
		before := liveHeap()
		d, err := ParseString(src)
		if err != nil {
			t.Fatal(err)
		}
		after := liveHeap()
		perNode := float64(after-before) / float64(d.Len())
		t.Logf("%s: %d nodes, %.1f B/node beyond the source (%.1f× its %d B); Bytes %d against %d live",
			name, d.Len(), perNode, float64(after-before)/float64(len(src)), len(src), d.Bytes(), after-start)
		if perNode > maxBytesPerNode {
			t.Errorf("%s: %.1f B/node of live heap, want at most %d", name, perNode, maxBytesPerNode)
		}
		if got, want := float64(d.Bytes()), float64(after-start); got < want*(1-bytesTolerance) || got > want*(1+bytesTolerance) {
			t.Errorf("%s: Bytes() = %.0f, live heap %.0f: off by more than %.0f%%", name, got, want, 100*bytesTolerance)
		}
		if name != "item" {
			runtime.KeepAlive(d)
			continue
		}
		// What is built on first use counts once it exists: a value and a
		// rank column, the ID table and the ref relation, the memo's table.
		d.NamedValues("name")
		d.NamedRanks("price")
		d.IDOf("item1")
		d.Ref(0)
		d.StringValue(d.Index().Named("item")[0])
		grown := liveHeap()
		if got, want := float64(d.Bytes()), float64(grown-start); got < want*(1-bytesTolerance) || got > want*(1+bytesTolerance) {
			t.Errorf("%s with its lazy tables: Bytes() = %.0f, live heap %.0f: off by more than %.0f%%", name, got, want, 100*bytesTolerance)
		}
		t.Logf("%s with its lazy tables: Bytes %d against %d live", name, d.Bytes(), grown-start)
		runtime.KeepAlive(d)
	}
}
