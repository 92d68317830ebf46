package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestOutput runs the example and compares what it prints with
// testdata/output.txt.
func TestOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/output.txt")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	main()
	os.Stdout = stdout
	w.Close()
	if b := <-got; !bytes.Equal(b, want) {
		t.Errorf("output:\n%s\nwant:\n%s", b, want)
	}
}
