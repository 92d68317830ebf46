// Command xpathquery evaluates an XPath 1.0 query over an XML document.
//
// Usage:
//
//	xpathquery -query '//book[price > 10]/title' catalog.xml
//	cat doc.xml | xpathquery -query 'count(//item)'
//	xpathquery -query '//a' -strategy topdown -explain doc.xml
//
// The -strategy flag selects one of the paper's polynomial algorithms
// (default auto = the combined OptMinContext processor); -explain prints
// core.ExplainText: both trees, the fragment classification, the
// algorithm that runs and why.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/semantics"
	"repro/internal/xpath"
)

func main() {
	query := flag.String("query", "", "XPath query (required)")
	strategy := flag.String("strategy", "auto", "evaluation strategy: auto|topdown|mincontext|optmincontext|corexpath|xpatterns")
	explain := flag.Bool("explain", false, "print the query's trees, fragment classification, chosen algorithm and the reason")
	flag.Parse()

	if *query == "" {
		fmt.Fprintln(os.Stderr, "xpathquery: -query is required")
		os.Exit(2)
	}
	strat, ok := core.StrategyByName(*strategy)
	if !ok {
		fmt.Fprintf(os.Stderr, "xpathquery: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		in = f
	}
	doc, err := core.Parse(in)
	if err != nil {
		fail(err)
	}
	q, err := core.Compile(*query)
	if err != nil {
		fail(err)
	}
	if *explain {
		fmt.Print(core.ExplainText(q, strat))
	}
	v, err := core.NewEngine(doc, strat).Evaluate(q, core.Context{Node: doc.RootID(), Pos: 1, Size: 1})
	if err != nil {
		fail(err)
	}
	switch v.Kind {
	case xpath.TypeNodeSet:
		fmt.Printf("%d node(s):\n", len(v.Set))
		for _, n := range v.Set {
			switch t := doc.Type(n); {
			case t.HasName():
				fmt.Printf("  %s %s  value=%q\n", t, doc.Name(n), truncate(doc.StringValue(n), 60))
			default:
				fmt.Printf("  %s  value=%q\n", t, truncate(doc.StringValue(n), 60))
			}
		}
	default:
		fmt.Println(semantics.ToString(doc, v))
	}
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "xpathquery: %v\n", err)
	os.Exit(1)
}
