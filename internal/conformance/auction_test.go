package conformance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/semantics"
	"repro/internal/workload"
)

// auctionQueries are XMark-flavoured queries over the auction
// document: joins via id(), aggregation, positional selection, and
// string functions, mirroring the mixes real XPath consumers issue.
var auctionQueries = []string{
	// Q1-style: lookup by id chain.
	"id(//open_auction[1]/bidder/personref)/name",
	// Regional filters.
	"//europe/item[shipping]/name",
	"count(//africa/item) + count(//asia/item)",
	// Existential joins.
	"//open_auction[bidder/personref = 'person1']",
	"//person[emailaddress][creditcard]/name",
	// Aggregates with arithmetic.
	"sum(//current) div count(//open_auction) > 10",
	"count(//item[quantity > 2])",
	// Positions within heterogeneous parents.
	"//open_auction/bidder[last()]/increase",
	"//open_auction[count(bidder) > 2]/@id",
	// Strings.
	"//person[starts-with(emailaddress, 'p1@')]/name",
	"count(//item[payment = 'cash'])",
	// Deep structural conditions.
	"//open_auction[bidder[position() = 1]/increase < current]",
}

// TestAuctionIntegration cross-checks all engines over the realistic
// document and pins a few invariants of the generator.
func TestAuctionIntegration(t *testing.T) {
	d := workload.Auction(42, 24)
	es := engines(d)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	for _, src := range auctionQueries {
		q := core.MustCompile(src)
		ref, err := es["naive"].Evaluate(q.Literal(), ctx)
		if err != nil {
			t.Fatalf("naive(%q): %v", src, err)
		}
		for name, eng := range es {
			if name == "naive" {
				continue
			}
			got, err := eng.Evaluate(q.Literal(), ctx)
			if err != nil {
				t.Errorf("%s(%q): %v", name, src, err)
				continue
			}
			if !got.Equal(ref) {
				t.Errorf("%s(%q) = %+v, naive = %+v", name, src, got, ref)
			}
		}
	}
}

// TestAuctionReferentialIntegrity checks every personref resolves — a
// pure id() workout.
func TestAuctionReferentialIntegrity(t *testing.T) {
	d := workload.Auction(7, 30)
	en := core.NewEngine(d, core.Auto)
	refs, err := en.Select(core.MustCompile("//personref"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no personref elements generated")
	}
	resolved, err := en.Select(core.MustCompile("id(//personref)"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resolved) == 0 {
		t.Fatal("id(//personref) resolved nothing")
	}
	for _, n := range resolved {
		if d.Name(n) != "person" {
			t.Errorf("personref resolved to <%s>", d.Name(n))
		}
	}
}

// TestAuctionFragmentMix confirms the realistic query mix spans the
// whole Figure 1 lattice.
func TestAuctionFragmentMix(t *testing.T) {
	seen := map[core.Fragment]bool{}
	for _, src := range auctionQueries {
		seen[core.MustCompile(src).Fragment()] = true
	}
	for _, f := range []core.Fragment{core.FragmentCoreXPath,
		core.FragmentXPatterns, core.FragmentFullXPath} {
		if !seen[f] {
			t.Errorf("query mix exercises no %v query", f)
		}
	}
}
