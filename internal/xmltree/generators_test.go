package xmltree_test

import (
	"testing"

	"repro/internal/workload"
	"repro/internal/xmltree"
)

// TestGeneratedIndexMatchesReference: the documents the workload
// generators build through the Builder — the auction document the
// benchmarks register and the paper's experiment documents — carry the
// index one rebuilt from their columns would have.
func TestGeneratedIndexMatchesReference(t *testing.T) {
	docs := map[string]*xmltree.Document{
		"auction":    workload.Auction(1, 300),
		"doc":        workload.Doc(6),
		"docprime":   workload.DocPrime(6),
		"deep":       workload.DeepDoc(40),
		"catalog":    workload.Catalog(50),
		"randomtree": workload.RandomTree(7, 2000, 40, 12),
	}
	for name, d := range docs {
		if diff := xmltree.IndexDiff(d); diff != "" {
			t.Errorf("%s: %s", name, diff)
		}
	}
}
