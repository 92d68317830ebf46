//go:build unix

package cluster

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
)

// BenchmarkPeerHop is the cost of one routed call's hop: Node.Query of
// count(//item) against a serve backend on loopback, served by its
// connection loop as xpathserve serves it, client and backend in this
// process, with 1 and 8 concurrent callers. Besides ns/op and
// allocs/op it reports cpu-ns/op, the process's user+system CPU per
// call — both ends of the hop — which on a box with few cores is the
// number that matters (ns/op is wall time).
//
//	go test -bench PeerHop -benchmem -run '^$' ./internal/cluster
func BenchmarkPeerHop(b *testing.B) {
	srv := serve.New(engine.New(engine.Options{CacheSize: 32, Workers: 2}), store.Config{})
	srv.SetLogger(slog.New(slog.NewTextHandler(io.Discard, nil))) // the hop, not the request log line
	if _, _, err := srv.AddDocument("auction", workload.Auction(1, 30).XMLString()); err != nil {
		b.Fatal(err)
	}
	node, err := NewNode(serveLoop(b, srv), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	call := func() {
		if status, _, err := node.Query(ctx, "auction", "count(//item)", false); err != nil || status != http.StatusOK {
			b.Errorf("query: status %d, %v", status, err)
		}
	}
	for i := 0; i < 3; i++ { // the compile cache admits a text on its second miss
		call()
	}
	for _, callers := range []int{1, 8} {
		b.Run(fmt.Sprintf("callers=%d", callers), func(b *testing.B) {
			b.ReportAllocs()
			var left atomic.Int64
			left.Store(int64(b.N))
			cpu := cpuTime()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for left.Add(-1) >= 0 {
						call()
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(cpuTime()-cpu)/float64(b.N), "cpu-ns/op")
		})
	}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
