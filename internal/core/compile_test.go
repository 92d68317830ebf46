package core

import (
	"fmt"
	"testing"
)

// coldUnion is a query in the shape of the benchmark's compile_cold
// workload: a union of six node-set members, one positional, four with
// literals, and one whose literal is a serial that makes the text unique.
func coldUnion(serial int) string {
	return fmt.Sprintf("//item[location='Kenya']/quantity | //open_auction/bidder[%d]/increase"+
		" | //item[name='u2-3-%d']/payment | //person[@id='person%d']/name"+
		" | //item[quantity=%d]/name | //open_auction[current > %d]/itemref",
		1+serial%4, serial, serial%8, 1+serial%5, 20+serial%100)
}

// BenchmarkCompileColdUnion is one compile of a never-seen union: lex,
// parse into Section 5's normal form, number, optimize and classify.
// Compile keeps no cache, so cycling through 1 024 distinct texts is
// compiling a new one every iteration; the texts are built beforehand so
// that only Compile's allocations are counted.
func BenchmarkCompileColdUnion(b *testing.B) {
	texts := make([]string, 1024)
	for i := range texts {
		texts[i] = coldUnion(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}

// compileAllocs is what one compile of a cold union allocates: the
// nodes of the two trees and their slices, the numbering and the Query.
// A lexer that materializes its tokens or a parser that copies its tree
// into normal form again adds dozens (the two-pass parser: 176).
const compileAllocs = 85

// TestCompileAllocs pins compileAllocs.
func TestCompileAllocs(t *testing.T) {
	src := coldUnion(7)
	got := testing.AllocsPerRun(50, func() {
		if _, err := Compile(src); err != nil {
			t.Fatal(err)
		}
	})
	if got > compileAllocs {
		t.Errorf("Compile(%s) allocates %.0f times, the budget is %d", src, got, compileAllocs)
	}
}
