// Command xpathlint is the multichecker driver for the repository's
// analyzer suite (internal/lint): cancelcheck, sharedset, wiretag,
// ctxhttp and metricname. It loads the packages matched by its arguments
// (default ./...), runs every analyzer, prints the surviving findings
// as file:line:col: message (analyzer), and exits 1 when there are
// any — the CI gate contract.
//
// Suppress an individual finding with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above. The reason is mandatory, and
// stale suppressions (directives that no longer match a finding) are
// themselves reported.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
	"repro/internal/lint/load"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: xpathlint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-12s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := load.Packages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpathlint: %v\n", err)
		os.Exit(2)
	}
	findings, err := lint.Run(pkgs, lint.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "xpathlint: %v\n", err)
		os.Exit(2)
	}
	cwd, _ := os.Getwd()
	for _, f := range findings {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !filepath.IsAbs(rel) {
				f.Pos.Filename = rel
			}
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "xpathlint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}
