package conformance

import (
	"testing"

	"repro/internal/core"
	"repro/internal/semantics"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// idDoc has IDs named by an attribute (ref="x") and by a text node (y)
// that are not an element's direct text of their own.
const idDoc = `<r><a id="x"><n>A</n></a><a id="y"><n>B</n></a><b ref="x">y</b></r>`

// idQueries call id() on attribute and text nodes, as a path head and in
// predicates. The string-value of such a node is its own data, so id()
// of it is deref_ids of that data; while the ref relation of Theorem 10.7
// had rows for elements only, the set algebras — xpatterns, the
// bottom-up phase of optmincontext, and auto, which serves these queries
// from them — answered every one of them with nothing.
var idQueries = []struct {
	query string
	want  int // nodes naive selects
}{
	{"id(//b/@ref)/n", 1},
	{"id(//b/text())/n", 1},
	{"//b[id(@ref)]", 1},
	{"//b[id(@ref)/n = 'A']", 1},
	{"//a[id(//b/@ref)]", 2},
}

// TestIDOfCharacterData runs idQueries on every engine, on core.Engine
// at auto and behind each fragment gate that admits the query, against
// naive and against the pinned count.
func TestIDOfCharacterData(t *testing.T) {
	d := xmltree.MustParseString(idDoc)
	ctx := semantics.Context{Node: d.RootID(), Pos: 1, Size: 1}
	for _, tc := range idQueries {
		e := xpath.MustParse(tc.query)
		es := engines(d)
		es["auto"] = coreEngine{core.NewEngine(d, core.Auto), tc.query, core.Auto}
		switch core.MustCompile(tc.query).Fragment() {
		case core.FragmentCoreXPath:
			es["core/corexpath"] = coreEngine{core.NewEngine(d, core.CoreXPath), tc.query, core.CoreXPath}
			fallthrough
		case core.FragmentXPatterns:
			es["core/xpatterns"] = coreEngine{core.NewEngine(d, core.XPatterns), tc.query, core.XPatterns}
		}
		want, err := es["naive"].Evaluate(e, ctx)
		if err != nil || len(want.Set) != tc.want {
			t.Fatalf("naive(%s) = %v, %v; want %d nodes", tc.query, want.Set, err, tc.want)
		}
		for name, eng := range es {
			got, err := eng.Evaluate(e, ctx)
			if err != nil {
				t.Errorf("%s(%s): %v", name, tc.query, err)
			} else if !got.Equal(want) {
				t.Errorf("%s(%s) = %v, naive = %v", name, tc.query, got.Set, want.Set)
			}
		}
	}
}
