package core_test

import (
	"fmt"

	"repro/internal/core"
)

func ExampleSelect() {
	d, _ := core.ParseString(`<menu><dish kind="veg">Soup</dish><dish kind="meat">Stew</dish></menu>`)
	nodes, _ := core.Select(d, "//dish[@kind = 'veg']")
	for _, n := range nodes {
		fmt.Println(d.StringValue(n))
	}
	// Output: Soup
}

func ExampleQuery_Fragment() {
	for _, q := range []string{
		"//a[b]",
		"//a[b = 'x']",
		"//a[position() != last()]",
		"//a[count(b) > 1]",
	} {
		fmt.Println(core.MustCompile(q).Fragment())
	}
	// Output:
	// Core XPath
	// XPatterns
	// Extended Wadler Fragment
	// Full XPath
}

func ExampleEngine_EvalString() {
	d, _ := core.ParseString(`<cart><item>3</item><item>4</item></cart>`)
	en := core.NewEngine(d, core.Auto)
	total, _ := en.EvalString(core.MustCompile("sum(//item)"))
	fmt.Println(total)
	// Output: 7
}

func ExampleEngine_StrategyFor() {
	d, _ := core.ParseString(`<a/>`)
	en := core.NewEngine(d, core.Auto)
	q := core.MustCompile("//a[not(b)]")
	fmt.Println(q.Fragment(), "->", en.StrategyFor(q))
	// Output: Core XPath -> optmincontext
}
