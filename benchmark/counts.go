package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// This file reads the servers' own counters, /stats and /metrics, and
// turns their change over a measured window into per-layer metrics.

// backendStats is the part of xpathserve's /stats the benchmark reads.
type backendStats struct {
	Cache struct {
		Hits      float64 `json:"hits"`
		Misses    float64 `json:"misses"`
		Evictions float64 `json:"evictions"`
		Rejects   float64 `json:"rejects"`
	} `json:"cache"`
	Fallbacks float64 `json:"fallbacks"`
	Planner   struct {
		Decisions float64 `json:"decisions"`
		Explored  float64 `json:"explored"`
		Bans      float64 `json:"bans"`
	} `json:"planner"`
	Store struct {
		Bytes     float64 `json:"bytes"`
		Hits      float64 `json:"hits"`
		Evictions float64 `json:"evictions"`
	} `json:"store"`
}

// routerStats is the part of xpathrouter's /stats the benchmark reads.
type routerStats struct {
	Router struct {
		AnswerCache struct {
			Hits          float64 `json:"hits"`
			Misses        float64 `json:"misses"`
			Invalidations float64 `json:"invalidations"`
		} `json:"answer_cache"`
		Replicated    float64 `json:"replicated"`
		ReplicaErrors float64 `json:"replica_errors"`
		Retries       float64 `json:"retries"`
		RetryDenied   float64 `json:"retry_denied"`
		Shed          float64 `json:"shed"`
	} `json:"router"`
}

var statsClient = &http.Client{Timeout: 5 * time.Second}

func get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := statsClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

func getJSON(ctx context.Context, url string, dst any) error {
	body, err := get(ctx, url)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, dst); err != nil {
		return fmt.Errorf("decode %s: %w", url, err)
	}
	return nil
}

// readCounts reads every counter the per-layer metrics use, summed over
// the backends, plus the router's when there is one.
func readCounts(ctx context.Context, t *topology) (counters, error) {
	c := counters{}
	for _, b := range t.backends {
		var st backendStats
		if err := getJSON(ctx, b.url+"/stats", &st); err != nil {
			return nil, err
		}
		text, err := get(ctx, b.url+"/metrics")
		if err != nil {
			return nil, err
		}
		m := parseMetricsText(string(text))
		c.add(counters{
			"cache.hits":      st.Cache.Hits,
			"cache.misses":    st.Cache.Misses,
			"cache.evictions": st.Cache.Evictions,
			"cache.rejects":   st.Cache.Rejects,
			"fallbacks":       st.Fallbacks,
			"decisions":       st.Planner.Decisions,
			"explored":        st.Planner.Explored,
			"bans":            st.Planner.Bans,
			"store.bytes":     st.Store.Bytes,
			"store.hits":      st.Store.Hits,
			"store.evictions": st.Store.Evictions,
			"query_errors":    m["xpath_query_errors_total"],
			"stage.evaluate":  m[`xpath_stage_seconds_sum{stage="evaluate"}`],
			"stage.compile":   m[`xpath_stage_seconds_sum{stage="compile"}`],
			"stage.route":     m[`xpath_stage_seconds_sum{stage="route"}`],
		})
	}
	if t.router != nil {
		var st routerStats
		if err := getJSON(ctx, t.router.url+"/stats", &st); err != nil {
			return nil, err
		}
		r := st.Router
		c.add(counters{
			"answer.hits":          r.AnswerCache.Hits,
			"answer.misses":        r.AnswerCache.Misses,
			"answer.invalidations": r.AnswerCache.Invalidations,
			"replicated":           r.Replicated,
			"replica_errors":       r.ReplicaErrors,
			"retries":              r.Retries,
			"retry_denied":         r.RetryDenied,
			"shed":                 r.Shed,
		})
	}
	return c, nil
}

// countMetrics turns two readings around a measured window into the
// count metrics. Everything is a change over the window except
// store.bytes, a level, which is read at its end.
func countMetrics(before, after counters) map[string]float64 {
	d := delta(before, after)
	return map[string]float64{
		"engine.cache_hit_rate":         ratio(d["cache.hits"], d["cache.hits"]+d["cache.misses"]),
		"engine.cache_evictions":        d["cache.evictions"],
		"engine.cache_rejects":          d["cache.rejects"],
		"engine.fallbacks":              d["fallbacks"],
		"engine.query_errors":           d["query_errors"],
		"planner.explored_share":        ratio(d["explored"], d["decisions"]),
		"planner.bans":                  d["bans"],
		"serve.evaluate_share":          ratio(d["stage.evaluate"], d["stage.route"]),
		"serve.compile_share":           ratio(d["stage.compile"], d["stage.route"]),
		"store.hits":                    d["store.hits"],
		"store.evictions":               d["store.evictions"],
		"store.bytes":                   after["store.bytes"],
		"cluster.answer_cache_hit_rate": ratio(d["answer.hits"], d["answer.hits"]+d["answer.misses"]),
		"cluster.invalidations":         d["answer.invalidations"],
		"cluster.replicated":            d["replicated"],
		"cluster.replica_errors":        d["replica_errors"],
		"resilience.retries":            d["retries"],
		"resilience.retry_denied":       d["retry_denied"],
		"resilience.shed":               d["shed"],
	}
}
