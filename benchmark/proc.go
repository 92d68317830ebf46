package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// This file is the part of the harness that owns processes: it builds
// the binaries, starts and stops the servers, and watches them so that
// a run can neither hang nor exhaust the machine.

const (
	healthDeadline = 10 * time.Second
	// rssLimitMB aborts a workload whose server grows past it: on large
	// documents the adaptive planner's exploration has been seen to take
	// gigabytes for one request.
	rssLimitMB = 2048
	// overrunFactor aborts a workload that takes this many times its
	// planned duration.
	overrunFactor = 3
)

// paths locates the repository and the build output. root is the
// repository checkout; everything the benchmark writes goes under
// root/.bench_build or benchmark/out.
type paths struct {
	root string
	bin  string
}

func newPaths(root string) (paths, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return paths{}, fmt.Errorf("resolve repository root: %w", err)
	}
	return paths{root: abs, bin: filepath.Join(abs, ".bench_build", "bin")}, nil
}

// buildServers builds cmd/xpathserve and cmd/xpathrouter into p.bin.
// The go commands inherit run.sh's environment, which keeps the build
// cache inside the checkout and forbids downloads.
func (p paths) buildServers(ctx context.Context) error {
	if err := os.MkdirAll(p.bin, 0o755); err != nil {
		return fmt.Errorf("create %s: %w", p.bin, err)
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", p.bin+string(filepath.Separator),
		"./cmd/xpathserve", "./cmd/xpathrouter")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build servers: %w\n%s", err, out)
	}
	return nil
}

// buildProbe builds the layer probe (build tag layerprobe) into p.bin.
// Its compiler output is part of the error: a refactor of the internal
// packages breaks the probe, never the end-to-end run.
func (p paths) buildProbe(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-tags", "layerprobe",
		"-o", filepath.Join(p.bin, "layerprobe"), "./layers")
	cmd.Dir = filepath.Join(p.root, "benchmark")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build -tags layerprobe ./layers: %w\n%s", err, out)
	}
	return nil
}

// server is one running child process that serves HTTP.
type server struct {
	name string
	url  string
	cmd  *exec.Cmd
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// procs is the set of children a run has started. Every child runs in
// its own process group and is killed by stopAll, which main defers and
// the signal handler calls.
type procs struct {
	mu       sync.Mutex
	children []*exec.Cmd
}

// start launches a child in its own process group. On Linux the child
// also gets SIGKILL if the harness dies without running stopAll.
func (ps *procs) start(cmd *exec.Cmd) error {
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", filepath.Base(cmd.Path), err)
	}
	ps.children = append(ps.children, cmd)
	return nil
}

// stop kills the given children's process groups and waits for them.
// The servers hold no state worth a graceful drain.
func (ps *procs) stop(cmds ...*exec.Cmd) {
	for _, cmd := range cmds {
		// A negative pid addresses the process group.
		_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // fails only when the group is already gone
	}
	for _, cmd := range cmds {
		_ = cmd.Wait() // the exit status of a killed child carries no information
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	kept := ps.children[:0]
	for _, c := range ps.children {
		stopped := false
		for _, cmd := range cmds {
			stopped = stopped || c == cmd
		}
		if !stopped {
			kept = append(kept, c)
		}
	}
	ps.children = kept
}

// running returns the children not yet stopped.
func (ps *procs) running() []*exec.Cmd {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]*exec.Cmd(nil), ps.children...)
}

// stopAll kills every child still running.
func (ps *procs) stopAll() { ps.stop(ps.running()...) }

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer launches one of the built binaries on a free port and
// waits until it answers /healthz. Only the pinned CLI surface is
// passed: -addr, -log-level and what extra carries (-planner rules, or
// -peers and -replicas).
func (ps *procs) startServer(ctx context.Context, p paths, binary string, extra ...string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", addr, "-log-level", "error"}, extra...)
	cmd := exec.Command(filepath.Join(p.bin, binary), args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := ps.start(cmd); err != nil {
		return nil, err
	}
	s := &server{name: binary, url: "http://" + addr, cmd: cmd}
	if err := waitHealthy(ctx, s.url); err != nil {
		ps.stop(cmd)
		return nil, fmt.Errorf("%s %s: %w", binary, strings.Join(args, " "), err)
	}
	return s, nil
}

// waitHealthy polls /healthz until it answers 200 or healthDeadline
// passes.
func waitHealthy(ctx context.Context, url string) error {
	ctx, cancel := context.WithTimeout(ctx, healthDeadline)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := client.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("not healthy within %v", healthDeadline)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// errAborted is the cause of a watchdog abort.
var errAborted = errors.New("watchdog abort")

// watchdog cancels the workload, with a named cause, when a server's
// resident set passes rssLimitMB or the workload runs overrunFactor
// times longer than planned. It returns when ctx ends.
func watchdog(ctx context.Context, abort context.CancelCauseFunc, planned time.Duration, ps *procs) {
	deadline := time.Now().Add(overrunFactor * planned)
	tick := time.NewTicker(200 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case now := <-tick.C:
			if now.After(deadline) {
				abort(fmt.Errorf("%w: workload passed %v, %d times its planned %v",
					errAborted, overrunFactor*planned, overrunFactor, planned))
				return
			}
			for _, cmd := range ps.running() {
				st, err := readProcStatus(cmd.Process.Pid)
				if err != nil {
					continue // the process ended between the listing and the read
				}
				if st.rssMB > rssLimitMB {
					abort(fmt.Errorf("%w: %s (pid %d) resident set %.0f MB passed %d MB",
						errAborted, filepath.Base(cmd.Path), cmd.Process.Pid, st.rssMB, rssLimitMB))
					return
				}
			}
		}
	}
}
