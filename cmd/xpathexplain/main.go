// Command xpathexplain shows how this library sees a query: the
// normalized (unabbreviated) form of Section 5, the optimized form the
// strategies evaluate (xpath.Optimize: //t as one descendant::t step
// where no predicate of t reads position() or last()), the fragment
// classification of Figure 1, the algorithm auto runs for that fragment
// and the paper's reason for it (core.ExplainText — what a server
// answers in /query's "strategy"), and the parse tree with static types
// and relevant contexts (Section 8.2, as in the paper's Example 8.2).
// The choice reads the query alone, so no document is needed. A query
// that does not compile exits 2.
//
//	xpathexplain '//a[5]/b[parent::a/child::* = "c"]'
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/xpath"
)

func main() {
	flag.Usage = func() { fmt.Fprintln(os.Stderr, "usage: xpathexplain <query>") }
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	q, err := core.Compile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpathexplain: %v\n", err)
		os.Exit(2)
	}
	fmt.Print(core.ExplainText(q, core.Auto))
	fmt.Println("\nparse tree of the optimized query (type : relevant context):")
	fmt.Print(xpath.TreeString(q.Expr()))
}
