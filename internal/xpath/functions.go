package xpath

import "fmt"

// Signature describes a core-library function: its result type and arity
// range (MaxArgs == -1 means variadic).
type Signature struct {
	Result           Type
	MinArgs, MaxArgs int
}

// coreFunctions is the XPath 1.0 core function library (W3C Rec. §4).
// The paper's Table II covers the semantics of most of these; the string
// and number functions it elides ("it is very easy to obtain these
// definitions from the XPath Recommendation") are included too.
var coreFunctions = map[string]Signature{
	// Node-set functions.
	"last":          {TypeNumber, 0, 0},
	"position":      {TypeNumber, 0, 0},
	"count":         {TypeNumber, 1, 1},
	"id":            {TypeNodeSet, 1, 1},
	"local-name":    {TypeString, 0, 1},
	"namespace-uri": {TypeString, 0, 1},
	"name":          {TypeString, 0, 1},
	// String functions.
	"string":           {TypeString, 0, 1},
	"concat":           {TypeString, 2, -1},
	"starts-with":      {TypeBoolean, 2, 2},
	"contains":         {TypeBoolean, 2, 2},
	"substring-before": {TypeString, 2, 2},
	"substring-after":  {TypeString, 2, 2},
	"substring":        {TypeString, 2, 3},
	"string-length":    {TypeNumber, 0, 1},
	"normalize-space":  {TypeString, 0, 1},
	"translate":        {TypeString, 3, 3},
	// Boolean functions.
	"boolean": {TypeBoolean, 1, 1},
	"not":     {TypeBoolean, 1, 1},
	"true":    {TypeBoolean, 0, 0},
	"false":   {TypeBoolean, 0, 0},
	"lang":    {TypeBoolean, 1, 1},
	// Number functions.
	"number":  {TypeNumber, 0, 1},
	"sum":     {TypeNumber, 1, 1},
	"floor":   {TypeNumber, 1, 1},
	"ceiling": {TypeNumber, 1, 1},
	"round":   {TypeNumber, 1, 1},
	// XSLT Patterns'98 unary predicates (Section 10.2, Theorem 10.8).
	// These existed in the December 1998 XSLT draft but not in XPath;
	// they are supported here as extension functions so that XPatterns
	// queries can use them, with linear-time precomputation in the
	// xpatterns engine and per-node evaluation elsewhere.
	"first-of-type": {TypeBoolean, 0, 0},
	"last-of-type":  {TypeBoolean, 0, 0},
	"first-of-any":  {TypeBoolean, 0, 0},
	"last-of-any":   {TypeBoolean, 0, 0},
}

// checkCall validates a call's arity against the library and that a
// node-set parameter gets one (nothing converts to a node set).
func checkCall(name string, args []Expr) error {
	sig, ok := coreFunctions[name]
	if !ok {
		return fmt.Errorf("unknown function %s()", name)
	}
	nargs := len(args)
	switch name {
	case "count", "sum", "local-name", "namespace-uri", "name":
		if nargs == 1 && args[0].Type() != TypeNodeSet {
			return fmt.Errorf("%s() requires a node-set argument, got %v", name, args[0].Type())
		}
	}
	if nargs < sig.MinArgs {
		return fmt.Errorf("%s() needs at least %d argument(s), got %d", name, sig.MinArgs, nargs)
	}
	if sig.MaxArgs >= 0 && nargs > sig.MaxArgs {
		return fmt.Errorf("%s() takes at most %d argument(s), got %d", name, sig.MaxArgs, nargs)
	}
	return nil
}
