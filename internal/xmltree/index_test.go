package xmltree

import "testing"

func TestContentCount(t *testing.T) {
	d, err := ParseString(`<a x="1"><b>t</b><c y="2"><d/></c></a>`)
	if err != nil {
		t.Fatal(err)
	}
	ix := d.Index()
	for lo := 0; lo <= d.Len(); lo++ {
		for hi := lo; hi <= d.Len(); hi++ {
			want := 0
			for i := lo; i < hi; i++ {
				if !d.IsAttrOrNS(NodeID(i)) {
					want++
				}
			}
			if got := ix.ContentCount(NodeID(lo), NodeID(hi)); got != want {
				t.Fatalf("ContentCount(%d,%d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
	if got := ix.ContentCount(3, 1); got != 0 {
		t.Fatalf("ContentCount on empty interval = %d, want 0", got)
	}
}
