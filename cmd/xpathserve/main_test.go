package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestLimitFlags: a negative -max-docs or -maxbytes is refused with a
// message naming the flag, 0 and positive limits pass, and the help
// text says what 0 means for each.
func TestLimitFlags(t *testing.T) {
	for _, tc := range []struct {
		docs  int
		bytes int64
		flag  string // "" when the pair is accepted
	}{
		{0, 0, ""},
		{serve.DefaultMaxDocuments, 1 << 20, ""},
		{1, 1, ""},
		{-1, 0, "-max-docs"},
		{-64, 1 << 20, "-max-docs"},
		{0, -1, "-maxbytes"},
		{64, -1 << 40, "-maxbytes"},
	} {
		err := checkLimits(tc.docs, tc.bytes)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("checkLimits(%d, %d) = %v, want nil", tc.docs, tc.bytes, err)
		case tc.flag != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.flag+" ")):
			t.Errorf("checkLimits(%d, %d) = %v, want an error naming %s", tc.docs, tc.bytes, err, tc.flag)
		}
	}
	if serve.DefaultMaxDocuments != 64 || !strings.Contains(maxDocsUsage, "(0 = 64 documents)") {
		t.Errorf("-max-docs help %q, default %d: want it to say 0 = 64 documents", maxDocsUsage, serve.DefaultMaxDocuments)
	}
	if !strings.Contains(maxBytesUsage, "(0 = unlimited)") {
		t.Errorf("-maxbytes help %q: want it to say 0 = unlimited", maxBytesUsage)
	}
}

// TestNegativeLimitExitsTwo runs the built server with each negative
// limit: it must exit 2 before listening, naming the flag on stderr.
func TestNegativeLimitExitsTwo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the server")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go tool on PATH")
	}
	bin := filepath.Join(t.TempDir(), "xpathserve")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, args := range [][]string{{"-max-docs", "-1"}, {"-maxbytes", "-5"}} {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: %v, want exit status 2", args, err)
		}
		if !strings.Contains(stderr.String(), args[0]+" ") {
			t.Errorf("%v: stderr %q does not name %s", args, stderr.String(), args[0])
		}
	}
}
