// Enginerace: the paper's headline result as a demo. The same
// antagonist-axis query family (Experiment 1) is evaluated by the naive
// engine — modeling XALAN, XT, Saxon and IE6 — and by the polynomial
// top-down engine of Section 7. Watch the naive times double with every
// appended /parent::a/b while the top-down times stay flat.
//
//	go run ./examples/enginerace
package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/workload"
)

func main() {
	d := workload.Doc(2) // ⟨a⟩⟨b/⟩⟨b/⟩⟨/a⟩, the paper's Experiment 1 document
	root := core.Context{Node: d.RootID(), Pos: 1, Size: 1}
	topdownEn := core.NewEngine(d, core.TopDown)

	fmt.Println("query family: //a/b(/parent::a/b)^k over DOC(2)")
	fmt.Printf("%4s %16s %16s\n", "k", "naive", "topdown")
	for k := 1; k <= 18; k++ {
		q := core.MustCompile(workload.Exp1Query(k))

		start := time.Now()
		// naive is an oracle, not a strategy: it runs the literal tree
		// (the paper's normal form) directly.
		if _, err := naive.New(d).Evaluate(q.Literal(), root); err != nil {
			fmt.Println("naive error:", err)
			return
		}
		naiveTime := time.Since(start)

		start = time.Now()
		if _, err := topdownEn.Select(q); err != nil {
			fmt.Println("topdown error:", err)
			return
		}
		topdownTime := time.Since(start)

		fmt.Printf("%4d %16s %16s\n", k, naiveTime.Round(time.Microsecond), topdownTime.Round(time.Microsecond))
		if naiveTime > 2*time.Second {
			fmt.Println("… naive engine is now exponential territory; stopping.")
			break
		}
	}
}
