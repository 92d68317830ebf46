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
// algorithm that runs and why. A query that does not compile exits 2
// before the document is read; a document or evaluation error exits 1.
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
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run compiles the query before it reads the document, so a query that
// does not compile is reported, with exit status 2, whatever the input.
// A document or evaluation error exits 1.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xpathquery", flag.ExitOnError)
	fs.SetOutput(stderr)
	query := fs.String("query", "", "XPath query (required)")
	strategy := fs.String("strategy", "auto", "evaluation strategy: auto|topdown|mincontext|optmincontext|corexpath|xpatterns")
	explain := fs.Bool("explain", false, "print the query's trees, fragment classification, chosen algorithm and the reason")
	fs.Parse(args) // ExitOnError: a bad flag exits 2

	if *query == "" {
		fmt.Fprintln(stderr, "xpathquery: -query is required")
		return 2
	}
	strat, ok := core.StrategyByName(*strategy)
	if !ok {
		fmt.Fprintf(stderr, "xpathquery: unknown strategy %q\n", *strategy)
		return 2
	}
	q, err := core.Compile(*query)
	if err != nil {
		fmt.Fprintf(stderr, "xpathquery: %v\n", err)
		return 2
	}

	in := stdin
	if fs.NArg() > 0 {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return fail(stderr, err)
		}
		defer f.Close()
		in = f
	}
	doc, err := core.Parse(in)
	if err != nil {
		return fail(stderr, err)
	}
	if *explain {
		fmt.Fprint(stdout, core.ExplainText(q, strat))
	}
	v, err := core.NewEngine(doc, strat).Evaluate(q, core.Context{Node: doc.RootID(), Pos: 1, Size: 1})
	if err != nil {
		return fail(stderr, err)
	}
	switch v.Kind {
	case xpath.TypeNodeSet:
		fmt.Fprintf(stdout, "%d node(s):\n", len(v.Set))
		for _, n := range v.Set {
			switch t := doc.Type(n); {
			case t.HasName():
				fmt.Fprintf(stdout, "  %s %s  value=%q\n", t, doc.Name(n), truncate(doc.StringValue(n), 60))
			default:
				fmt.Fprintf(stdout, "  %s  value=%q\n", t, truncate(doc.StringValue(n), 60))
			}
		}
	default:
		fmt.Fprintln(stdout, semantics.ToString(doc, v))
	}
	return 0
}

func truncate(s string, n int) string {
	if len(s) > n {
		return s[:n] + "…"
	}
	return s
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "xpathquery: %v\n", err)
	return 1
}
