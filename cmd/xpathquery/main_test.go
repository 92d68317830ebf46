package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadQueryExitsTwo: a query that does not compile is refused with
// status 2 and the parser's message before the document is read — here
// stdin is not XML at all.
func TestBadQueryExitsTwo(t *testing.T) {
	var out, errs bytes.Buffer
	code := run([]string{"-query", "count(//b) + $v"}, strings.NewReader("not xml"), &out, &errs)
	if code != 2 || !strings.Contains(errs.String(), "offset 13: variable references are not supported") || out.Len() != 0 {
		t.Fatalf("exit %d, stderr %q, stdout %q; want 2 and the parse error at the $", code, errs.String(), out.String())
	}
}

// TestQueryOverStdin: a query that compiles is evaluated over stdin.
func TestQueryOverStdin(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run([]string{"-query", "count(//b)"}, strings.NewReader("<a><b/><b/></a>"), &out, &errs); code != 0 || out.String() != "2\n" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want 0 and 2", code, out.String(), errs.String())
	}
	out.Reset()
	if code := run([]string{"-query", "count(//b)"}, strings.NewReader("not xml"), &out, &errs); code != 1 {
		t.Fatalf("malformed document: exit %d, want 1", code)
	}
}
