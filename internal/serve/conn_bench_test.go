package serve

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/workload"
)

// BenchmarkServeConn is the HTTP layer's cost: a cached /query hit
// (count(//item) on workload.Auction(1, 30)) over loopback keep-alive
// connections, through the Loop and through net/http's server, with 1
// and 8 callers. The callers are raw clients — one prepared request,
// the answer read by its Content-Length — so that nearly all of
// cpu-ns/op, the process's user+system CPU per request (getrusage), is
// the server's: accept, read, dispatch, handler, answer.
//
//	go test -bench ServeConn -benchmem -run '^$' ./internal/serve
func BenchmarkServeConn(b *testing.B) {
	srv := New(engine.New(engine.Options{CacheSize: 32, Workers: 2}), store.Config{})
	srv.SetLogger(quiet()) // the layer, not the request log line
	if _, _, err := srv.AddDocument("auction", workload.Auction(1, 30).XMLString()); err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	request := []byte("GET /query?doc=auction&q=count(//item) HTTP/1.1\r\nHost: bench\r\n\r\n")
	servers := []struct {
		name  string
		serve func(net.Listener) (stop func())
	}{
		{"loop", func(ln net.Listener) func() {
			l := NewLoop(h, quiet())
			go l.Serve(ln)
			return func() { l.Shutdown(context.Background()) }
		}},
		{"net-http", func(ln net.Listener) func() {
			hs := &http.Server{Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
			go hs.Serve(ln)
			return func() { hs.Close() }
		}},
	}
	for _, s := range servers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		stop := s.serve(ln)
		for _, callers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/callers=%d", s.name, callers), func(b *testing.B) {
				clients := make([]*rawClient, callers)
				for i := range clients {
					if clients[i], err = dialRaw(ln.Addr().String()); err != nil {
						b.Fatal(err)
					}
					defer clients[i].nc.Close()
				}
				for i := 0; i < 3; i++ { // the compile cache admits a text on its second miss
					if err := clients[0].do(request); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				var left atomic.Int64
				left.Store(int64(b.N))
				cpu := cpuTime()
				b.ResetTimer()
				var wg sync.WaitGroup
				for _, c := range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for left.Add(-1) >= 0 {
							if err := c.do(request); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(cpuTime()-cpu)/float64(b.N), "cpu-ns/op")
			})
		}
		stop()
	}
}

// rawClient is a keep-alive HTTP/1.1 client that sends prepared bytes
// and reads an answer by its Content-Length.
type rawClient struct {
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(addr string) (*rawClient, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawClient{nc: nc, br: bufio.NewReader(nc)}, nil
}

func (c *rawClient) do(request []byte) error {
	if _, err := c.nc.Write(request); err != nil {
		return err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return err
	}
	if !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
		return fmt.Errorf("answer %q", line)
	}
	n := -1
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(line) <= 2 {
			break
		}
		if v, ok := bytes.CutPrefix(line, []byte("Content-Length: ")); ok {
			n, _ = strconv.Atoi(string(bytes.TrimSpace(v)))
		}
	}
	if n < 0 {
		return fmt.Errorf("answer without a Content-Length")
	}
	_, err = c.br.Discard(n)
	return err
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
