// Command xpathexplain shows how this library sees a query: the
// normalized (unabbreviated) form of Section 5, the optimized form the
// strategies evaluate (xpath.Optimize: //t as one descendant::t step
// where no predicate of t reads position() or last()), its parse tree
// with static types and relevant contexts (Section 8.2, as in the
// paper's Example 8.2), the fragment classification of Figure 1, and —
// through
// the strategy planner — the shape features, candidate engines and
// chosen algorithm, with the rule or observed-latency rationale. It is
// the EXPLAIN of this stack: what a server running with the same
// -planner mode would decide for this query, debuggable offline.
//
//	xpathexplain '//a[5]/b[parent::a/child::* = "c"]'
//	xpathexplain -planner rules -doc catalog.xml 'count(//product)'
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/xpath"
)

func main() {
	mode := flag.String("planner", "adaptive", "planner mode to explain under: adaptive|rules|off")
	docPath := flag.String("doc", "", "XML document to plan against (planning is document-size aware; default: a tiny placeholder)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: xpathexplain [-planner adaptive|rules|off] [-doc file.xml] <query>")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	q, err := core.Compile(flag.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpathexplain: %v\n", err)
		os.Exit(1)
	}
	pmode, ok := planner.ModeByName(*mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "xpathexplain: unknown planner mode %q\n", *mode)
		os.Exit(2)
	}
	doc, err := core.ParseString("<x/>")
	if *docPath != "" {
		f, ferr := os.Open(*docPath)
		if ferr != nil {
			fmt.Fprintf(os.Stderr, "xpathexplain: %v\n", ferr)
			os.Exit(1)
		}
		doc, err = core.Parse(f)
		f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpathexplain: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("query:       %s\n", q)
	fmt.Printf("normalized:  %s\n", q.Literal())
	fmt.Printf("optimized:   %s\n", q.Expr())
	fmt.Printf("fragment:    %s\n", q.Fragment())

	if pmode == planner.Off {
		// No planner: Auto resolves by the static fragment switch.
		fmt.Printf("auto picks:  %s (planner off: static fragment switch)\n", core.NewEngine(doc, core.Auto).StrategyFor(q))
	} else {
		// A fresh planner has no latency observations, so this prints
		// the decision a cold server in the same mode would make; the
		// candidate table shows where a warm server would plug in its
		// evidence (sources: entry, class, matrix, rule).
		p := planner.New(planner.Config{Mode: pmode})
		dec := p.Peek(q, doc.Len())
		fmt.Printf("shape:       %s\n", dec.Shape)
		fmt.Printf("class:       %s\n", dec.Class)
		fmt.Println("candidates (rule-preference order):")
		for _, c := range dec.Candidates {
			mark := " "
			if c.Strategy == dec.Strategy {
				mark = "*"
			}
			est := "no observations"
			if c.Seconds >= 0 {
				est = fmt.Sprintf("~%.3gms observed (%s)", c.Seconds*1e3, c.Source)
			}
			banned := ""
			if c.Banned {
				banned = "  [banned]"
			}
			fmt.Printf("  %s %-14s %s%s\n", mark, c.Strategy, est, banned)
		}
		fmt.Printf("chosen:      %s\n", dec.Strategy)
		fmt.Printf("rationale:   %s\n", dec.Rationale)
	}

	fmt.Println("\nparse tree of the optimized query (type : relevant context):")
	fmt.Print(xpath.TreeString(q.Expr()))
}
