// Command xpathexplain shows how this library sees a query: the
// normalized (unabbreviated) form of Section 5, the optimized form the
// strategies evaluate (xpath.Optimize: //t as one descendant::t step
// where no predicate of t reads position() or last()), the fragment
// classification of Figure 1, the predicate nesting depth and document
// size the auto table reads, the algorithm auto runs and the paper's
// reason for it (core.ExplainText — what a server answers in /query's
// "strategy"), and the parse tree with static types and relevant
// contexts (Section 8.2, as in the paper's Example 8.2).
//
//	xpathexplain '//a[5]/b[parent::a/child::* = "c"]'
//	xpathexplain -doc catalog.xml 'count(//product)'
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/xpath"
)

func main() {
	docPath := flag.String("doc", "", "XML document to explain against (one row of the table reads its size; default: size unknown, |D| = 0)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: xpathexplain [-doc file.xml] <query>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	q, err := core.Compile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	docNodes := 0
	if *docPath != "" {
		f, err := os.Open(*docPath)
		if err != nil {
			fail(err)
		}
		doc, err := core.Parse(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		docNodes = doc.Len()
	}
	fmt.Print(core.ExplainText(q, docNodes, core.Auto))
	fmt.Println("\nparse tree of the optimized query (type : relevant context):")
	fmt.Print(xpath.TreeString(q.Expr()))
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "xpathexplain: %v\n", err)
	os.Exit(1)
}
