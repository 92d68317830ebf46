package xpath

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/normal_form.txt from the current parser")

// goldenFile pins, for every query text the repository's tests use,
// what Parse builds: the normal form, the optimized tree and the
// numbering of both. An entry is a block of lines ended by a blank one:
//
//	query "<Go-quoted text>"
//	…                          (the recorded lines renderGolden writes)
const goldenFile = "testdata/normal_form.txt"

// goldenEntry is one block of goldenFile: its query line and the rest.
type goldenEntry struct {
	query, line string
	want        []string
}

func readGolden(t testing.TB) []goldenEntry {
	t.Helper()
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	var out []goldenEntry
	for _, block := range strings.Split(strings.TrimSpace(string(data)), "\n\n") {
		lines := strings.Split(block, "\n")
		for len(lines) > 0 && strings.HasPrefix(lines[0], "#") {
			lines = lines[1:] // comments lead a block
		}
		if len(lines) == 0 {
			continue
		}
		quoted, ok := strings.CutPrefix(lines[0], "query ")
		q, err := strconv.Unquote(quoted)
		if !ok || err != nil {
			t.Fatalf("malformed entry:\n%s", block)
		}
		out = append(out, goldenEntry{query: q, line: lines[0], want: lines[1:]})
	}
	return out
}

// renderGolden computes the recorded lines of a query.
func renderGolden(query string) []string {
	x, err := Parse(query)
	if err != nil {
		return []string{"error"}
	}
	opt := Optimize(x)
	return []string{"parse " + x.String(), "optimize " + opt.String(), "slots " + slotList(x), "oslots " + slotList(opt)}
}

// slotList is the slot count and, in Walk order, every node's slot and
// recorded Relev.
func slotList(e Expr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:", Slots(e))
	Walk(e, func(x Expr) { fmt.Fprintf(&b, " %d%s", Slot(x), RelevantContext(x)) })
	return b.String()
}

// TestNormalFormGolden: the parser builds, for every query in
// goldenFile, the trees recorded there. The file was written by the
// two-pass parser (lex, parse, normalize, number), so this is the
// proof that the one-pass parser builds the same normal form with the
// same numbering; with -update it rewrites the recorded lines.
func TestNormalFormGolden(t *testing.T) {
	entries := readGolden(t)
	if len(entries) < 1000 {
		t.Fatalf("only %d entries read", len(entries))
	}
	var file strings.Builder
	if *update {
		data, _ := os.ReadFile(goldenFile)
		for _, l := range strings.Split(string(data), "\n") {
			if !strings.HasPrefix(l, "#") {
				break
			}
			file.WriteString(l + "\n")
		}
	}
	for _, e := range entries {
		got := renderGolden(e.query)
		if *update {
			file.WriteString("\n" + strings.Join(append([]string{e.line}, got...), "\n") + "\n")
			continue
		}
		if g, w := strings.Join(got, "\n"), strings.Join(e.want, "\n"); g != w {
			t.Errorf("%s:\n got: %s\nwant: %s", e.line, g, w)
		}
	}
	if *update {
		if err := os.WriteFile(goldenFile, []byte(file.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
