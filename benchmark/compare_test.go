package main

import "testing"

func TestJudge(t *testing.T) {
	higher := metricSpec{Name: "throughput_ops_s", Better: "higher", Bound: 0.10}
	lower := metricSpec{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		m    metricSpec
		base []float64
		new  []float64
		want verdict
	}{
		{"throughput up 20%", higher, steady, []float64{120, 121, 119}, better},
		{"throughput down 20%", higher, steady, []float64{80, 81, 79}, worse},
		{"throughput down 5%", higher, steady, []float64{95, 96, 94}, withinBound},
		{"latency up 20%", lower, steady, []float64{120, 121, 119}, worse},
		{"latency down 20%", lower, steady, []float64{80, 81, 79}, better},
		{"latency up 5%", lower, steady, []float64{105, 104, 106}, withinBound},
		{"base spread wider than the bound", lower, []float64{80, 100, 120, 90, 115}, []float64{200, 201, 199}, unresolved},
		{"exactly at the bound is within it", higher, []float64{100}, []float64{90}, withinBound},
	} {
		got := judge(c.m, c.base, c.new)
		if got.verdict != c.want {
			t.Errorf("%s: verdict %s, want %s (ratio %v)", c.name, got.verdict, c.want, got.ratio)
		}
	}
	got := judge(higher, []float64{100, 200}, []float64{150})
	if got.baseMedian != 150 || got.newMedian != 150 || got.ratio != 1 {
		t.Errorf("medians and ratio = %v, %v, %v", got.baseMedian, got.newMedian, got.ratio)
	}
}

func TestValuesOfSeparatesTracedRuns(t *testing.T) {
	results := []*result{
		{Workload: "serve_hot", Metrics: map[string]float64{"throughput_ops_s": 1}},
		{Workload: "serve_hot", Traced: true, Metrics: map[string]float64{"xpath.parse_us": 9}},
		{Workload: "serve_hot", Metrics: map[string]float64{"throughput_ops_s": 3}},
		{Workload: "eval_heavy", Metrics: map[string]float64{"throughput_ops_s": 7}},
	}
	e2e := valuesOf(results, false)
	if got := e2e["serve_hot"]["throughput_ops_s"]; len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("serve_hot throughput values = %v", got)
	}
	if _, ok := e2e["serve_hot"]["xpath.parse_us"]; ok {
		t.Error("a traced metric leaked into the end-to-end values")
	}
	if got := valuesOf(results, true)["serve_hot"]["xpath.parse_us"]; len(got) != 1 || got[0] != 9 {
		t.Errorf("traced values = %v", got)
	}
}
