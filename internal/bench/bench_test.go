package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// quick returns a configuration that keeps test runs fast.
func quick() Config {
	return Config{Cap: 150 * time.Millisecond, Scale: 0.05}
}

func TestExp1Shape(t *testing.T) {
	series := Exp1(quick())
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	nv, td := series[0], series[1]
	// The naive curve must grow roughly exponentially (each
	// parent::a/b doubles the work on DOC(2)).
	if r := GrowthRatio(nv); r < 1.5 {
		t.Errorf("naive growth ratio = %.2f, want ≥ 1.5 (exponential)", r)
	}
	// The top-down curve must stay flat-ish: bounded growth per step.
	if r := GrowthRatio(td); r > 1.4 {
		t.Errorf("topdown growth ratio = %.2f, want ≈1 (polynomial)", r)
	}
	// The naive series must have been truncated by the cap well before
	// k=25; the top-down series must have completed.
	if len(nv.Points) >= 25 {
		t.Errorf("naive series ran to k=%d without hitting the cap", len(nv.Points))
	}
	if len(td.Points) != 25 {
		t.Errorf("topdown series stopped early at %d points", len(td.Points))
	}
}

func TestExp5Shapes(t *testing.T) {
	following := Exp5(quick(), false)
	if len(following) == 0 {
		t.Fatal("no series")
	}
	// Every naive series on the larger documents should be truncated.
	last := following[len(following)-2] // naive doc 50
	if !strings.Contains(last.Label, "naive") {
		t.Fatalf("unexpected series order: %v", last.Label)
	}
	if len(last.Points) >= 20 {
		t.Errorf("naive doc-50 series ran to completion; expected cap")
	}
	ours := following[len(following)-1]
	if !strings.Contains(ours.Label, "topdown") {
		t.Fatalf("missing topdown series")
	}
	if len(ours.Points) != 20 {
		t.Errorf("topdown series truncated at %d", len(ours.Points))
	}

	descendant := Exp5(quick(), true)
	lastD := descendant[len(descendant)-2]
	if len(lastD.Points) >= 20 {
		t.Errorf("naive descendant series ran to completion; expected cap")
	}
}

func TestTable5Shape(t *testing.T) {
	series := Table5(quick())
	if len(series) != 4 {
		t.Fatalf("series = %d", len(series))
	}
	classic10, pool10, classic200, pool200 := series[0], series[1], series[2], series[3]
	// Data pool must reach |Q|=8 on both documents.
	if len(pool10.Points) != 8 || len(pool200.Points) != 8 {
		t.Errorf("data pool truncated: %d / %d points", len(pool10.Points), len(pool200.Points))
	}
	for _, p := range append(pool10.Points, pool200.Points...) {
		if p.TimedOut {
			t.Error("data pool point timed out")
		}
	}
	// Classic on doc 200 must be truncated very early (the paper shows
	// 1343s at |Q|=3).
	if len(classic200.Points) > 5 {
		t.Errorf("classic doc 200 reached |Q|=%d; expected early truncation", len(classic200.Points))
	}
	_ = classic10
}

func TestExp4Shape(t *testing.T) {
	cfg := quick()
	cfg.Scale = 0.2 // docs 1000..10000 for the linear engine
	series := Exp4(cfg)
	if len(series) != 2 {
		t.Fatalf("series = %d", len(series))
	}
	lin := series[0].Points
	if len(lin) < 6 {
		t.Fatalf("linear engine truncated at %d points", len(lin))
	}
	// Linear data complexity: doubling the document should roughly
	// double the bytes one evaluation allocates (stay well under
	// quadratic's 4×).
	last := lin[len(lin)-1]
	var half *Point
	for i := range lin {
		if 2*lin[i].DocSize >= last.DocSize-2 && 2*lin[i].DocSize <= last.DocSize+2 {
			half = &lin[i]
		}
	}
	if half == nil {
		t.Fatal("no half-size point")
	}
	ratio := float64(last.Bytes) / float64(half.Bytes)
	if half.Bytes == 0 || ratio > 3 {
		t.Errorf("corexpath doubling ratio = %.2f (%d → %d B); expected near-linear (<3)", ratio, half.Bytes, last.Bytes)
	}
}

func TestPrinters(t *testing.T) {
	var buf bytes.Buffer
	s := []Series{{Label: "x", Points: []Point{
		{QuerySize: 1, DocSize: 3, Millis: 1.5},
		{QuerySize: 2, DocSize: 3, TimedOut: true},
	}}}
	FprintSeries(&buf, "t", s)
	out := buf.String()
	if !strings.Contains(out, "1.50ms") || !strings.Contains(out, "-") {
		t.Errorf("FprintSeries output:\n%s", out)
	}
	buf.Reset()
	FprintDocSeries(&buf, "t", s)
	if !strings.Contains(buf.String(), "3") {
		t.Errorf("FprintDocSeries output:\n%s", buf.String())
	}
}

func TestAblationRuns(t *testing.T) {
	var buf bytes.Buffer
	cfg := quick()
	cfg.Out = &buf
	series := Ablation(cfg)
	if len(series) != 3 {
		t.Fatalf("ablation series = %d", len(series))
	}
	if !strings.Contains(buf.String(), "corexpath") {
		t.Error("ablation output missing corexpath row")
	}
}
