package soak

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/pkg/bwamem"
)

// localServer is the in-process target: pkg/bwamem.NewServer behind a
// real TCP listener, so the soak exercises the same HTTP surface CI and
// production see, without a subprocess.
type localServer struct {
	baseURL string
	srv     *bwamem.Server
	hs      *http.Server
	ln      net.Listener

	stopOnce sync.Once
}

func startLocalServer(o *Options, idx *bwamem.Index, logf func(string, ...any)) (*localServer, error) {
	aln, err := bwamem.New(idx)
	if err != nil {
		return nil, err
	}
	srv, err := bwamem.NewServer(aln, bwamem.ServerConfig{
		Threads:            o.Threads,
		BatchSize:          o.BatchSize,
		MaxInFlightReads:   o.MaxInflight,
		MaxReadsPerRequest: o.MaxRequestReads,
		MaxReadLen:         o.MaxReadLen,
		CacheEnabled:       true,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &localServer{
		baseURL: "http://" + ln.Addr().String(),
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		ln:      ln,
	}
	go ls.hs.Serve(ln)
	logf("soak: in-process server on %s (threads=%d batch=%d max-inflight=%d)",
		ls.baseURL, o.Threads, o.BatchSize, o.MaxInflight)
	return ls, nil
}

// drain is the clean-shutdown invariant: graceful Shutdown must complete
// within the drain window once load has stopped.
func (ls *localServer) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := ls.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http server shutdown: %w", err)
	}
	if err := ls.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("graceful drain: %w", err)
	}
	ls.stopOnce.Do(func() {}) // drained: stop() has nothing left to do
	return nil
}

func (ls *localServer) stop() {
	ls.stopOnce.Do(func() {
		ls.hs.Close()
		ls.srv.Close()
	})
}

// childServer is the chaos target: a real bwaserve process this harness
// can SIGKILL mid-traffic and restart on the same port.
type childServer struct {
	o    *Options
	logf func(string, ...any)

	bin     string
	binDir  string // temp dir when we built the binary ourselves
	addr    string
	baseURL string

	mu     sync.Mutex
	cmd    *exec.Cmd
	stderr *bytes.Buffer
}

// resolveServerBin returns the bwaserve binary a chaos target spawns:
// o.ServerBin when set, otherwise a fresh build of ./cmd/bwaserve into a
// temp dir (run from the module root). binDir is non-empty only when the
// build happened here; the caller owns its removal.
func resolveServerBin(ctx context.Context, o *Options, logf func(string, ...any)) (bin, binDir string, err error) {
	if o.ServerBin != "" {
		return o.ServerBin, "", nil
	}
	dir, err := os.MkdirTemp("", "bwasoak-*")
	if err != nil {
		return "", "", err
	}
	bin = filepath.Join(dir, "bwaserve")
	logf("soak: building bwaserve for chaos mode")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bwaserve")
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		return "", "", fmt.Errorf("soak: building bwaserve (run from the module root or pass -server-bin): %v\n%s", err, out)
	}
	return bin, dir, nil
}

// startChildServer resolves the bwaserve binary, reserves a port, spawns
// the process, and waits for /v1/healthz.
func startChildServer(ctx context.Context, o *Options, logf func(string, ...any)) (*childServer, error) {
	bin, binDir, err := resolveServerBin(ctx, o, logf)
	if err != nil {
		return nil, err
	}
	return launchChild(ctx, o, bin, binDir, logf)
}

// launchChild spawns one bwaserve process from bin on a fresh port and
// waits for it to become healthy. The child owns binDir (removed on stop);
// pass "" when the binary is shared.
func launchChild(ctx context.Context, o *Options, bin, binDir string, logf func(string, ...any)) (*childServer, error) {
	c := &childServer{o: o, logf: logf, bin: bin, binDir: binDir}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.cleanup()
		return nil, err
	}
	c.addr = ln.Addr().String()
	c.baseURL = "http://" + c.addr
	ln.Close() // free it for the child; the window for a steal is tiny and a steal fails loudly
	if err := c.spawn(); err != nil {
		c.cleanup()
		return nil, err
	}
	if err := c.waitHealthy(ctx, 60*time.Second); err != nil {
		c.stop()
		return nil, fmt.Errorf("soak: bwaserve never became healthy: %w", err)
	}
	logf("soak: bwaserve subprocess on %s (pid %d)", c.baseURL, c.pid())
	return c, nil
}

func (c *childServer) spawn() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stderr = &bytes.Buffer{}
	cmd := exec.Command(c.bin,
		"-addr", c.addr,
		"-synthetic", strconv.Itoa(c.o.GenomeBP),
		"-seed", strconv.FormatInt(c.o.GenomeSeed, 10),
		"-t", strconv.Itoa(c.o.Threads),
		"-batch", strconv.Itoa(c.o.BatchSize),
		"-max-inflight", strconv.Itoa(c.o.MaxInflight),
		"-max-request-reads", strconv.Itoa(c.o.MaxRequestReads),
		"-max-read-len", strconv.Itoa(c.o.MaxReadLen),
	)
	cmd.Stdout = c.stderr
	cmd.Stderr = c.stderr
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("soak: starting %s: %w", c.bin, err)
	}
	c.cmd = cmd
	return nil
}

func (c *childServer) pid() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cmd == nil || c.cmd.Process == nil {
		return 0
	}
	return c.cmd.Process.Pid
}

// waitHealthy polls /v1/healthz until the child answers 200.
func (c *childServer) waitHealthy(ctx context.Context, timeout time.Duration) error {
	hc := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := hc.Get(c.baseURL + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			c.mu.Lock()
			tail := c.stderr.String()
			c.mu.Unlock()
			if len(tail) > 2048 {
				tail = tail[len(tail)-2048:]
			}
			if err == nil {
				err = fmt.Errorf("healthz not OK")
			}
			return fmt.Errorf("%v; server output:\n%s", err, tail)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// kill is the chaos event: SIGKILL, no warning, mid-traffic.
func (c *childServer) kill() error {
	c.mu.Lock()
	cmd := c.cmd
	c.cmd = nil
	c.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("no running server process")
	}
	if err := cmd.Process.Kill(); err != nil {
		return err
	}
	cmd.Wait() // reap; a SIGKILL exit status is the expected outcome here
	return nil
}

// restart brings the killed server back on the same port and waits for
// it to pass health checks.
func (c *childServer) restart(ctx context.Context) error {
	if err := c.spawn(); err != nil {
		return err
	}
	return c.waitHealthy(ctx, 60*time.Second)
}

// drain asks the child to shut down gracefully (SIGTERM) and requires a
// clean exit within the drain window.
func (c *childServer) drain() error {
	c.mu.Lock()
	cmd := c.cmd
	c.cmd = nil
	c.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("no running server process to drain")
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("bwaserve exited uncleanly on SIGTERM: %w", err)
		}
		return nil
	case <-time.After(45 * time.Second):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("bwaserve did not exit within 45s of SIGTERM")
	}
}

func (c *childServer) stop() {
	c.mu.Lock()
	cmd := c.cmd
	c.cmd = nil
	c.mu.Unlock()
	if cmd != nil && cmd.Process != nil {
		cmd.Process.Kill()
		cmd.Wait()
	}
	c.cleanup()
}

func (c *childServer) cleanup() {
	if c.binDir != "" {
		os.RemoveAll(c.binDir)
		c.binDir = ""
	}
}

// gatewayTarget is the fleet topology: N replicas behind an in-process
// bwagate. Without chaos the replicas are in-process bwamem servers (no
// subprocess, CI-friendly); with kill-restart chaos they are real
// bwaserve processes sharing one built binary, so a SIGKILL hits a
// replica while the gateway — not the client — rides through it.
type gatewayTarget struct {
	baseURL  string
	gw       *gateway.Gateway
	hs       *http.Server
	ln       net.Listener
	locals   []*localServer
	children []*childServer
	binDir   string // shared bwaserve binary dir (chaos mode, built here)

	stopOnce sync.Once
}

// logfWriter routes a slog handler's output through the harness's logf.
// A handler writes each record in one Write, so one record is one line.
type logfWriter func(string, ...any)

func (f logfWriter) Write(p []byte) (int, error) {
	f("gateway: %s", bytes.TrimSuffix(p, []byte("\n")))
	return len(p), nil
}

func startGatewayTarget(ctx context.Context, o *Options, n int, idx *bwamem.Index, logf func(string, ...any)) (*gatewayTarget, error) {
	gt := &gatewayTarget{}
	urls := make([]string, 0, n)
	if o.Chaos != "" {
		bin, binDir, err := resolveServerBin(ctx, o, logf)
		if err != nil {
			return nil, err
		}
		gt.binDir = binDir
		for i := 0; i < n; i++ {
			c, err := launchChild(ctx, o, bin, "", logf)
			if err != nil {
				gt.stop()
				return nil, err
			}
			gt.children = append(gt.children, c)
			urls = append(urls, c.baseURL)
		}
	} else {
		for i := 0; i < n; i++ {
			ls, err := startLocalServer(o, idx, logf)
			if err != nil {
				gt.stop()
				return nil, err
			}
			gt.locals = append(gt.locals, ls)
			urls = append(urls, ls.baseURL)
		}
	}
	gw, err := gateway.New(gateway.Config{
		Replicas:           urls,
		ProbeInterval:      200 * time.Millisecond, // re-add restarted replicas well within a chaos window
		FailAfter:          2,
		MaxReadsPerRequest: o.MaxRequestReads,
		MaxReadLen:         o.MaxReadLen,
	})
	if err != nil {
		gt.stop()
		return nil, err
	}
	gt.gw = gw
	gw.SetLogger(slog.New(slog.NewTextHandler(logfWriter(logf), nil)))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		gt.stop()
		return nil, err
	}
	gt.ln = ln
	gt.baseURL = "http://" + ln.Addr().String()
	gt.hs = &http.Server{Handler: gw}
	go gt.hs.Serve(ln)
	logf("soak: gateway on %s over %d replicas (chaos=%q)", gt.baseURL, n, o.Chaos)
	return gt, nil
}

// drain shuts the tier down front to back: the gateway drains first (its
// in-flight fan-outs finish against live replicas), then each replica.
func (gt *gatewayTarget) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var firstErr error
	if err := gt.gw.Shutdown(ctx); err != nil {
		firstErr = fmt.Errorf("gateway drain: %w", err)
	}
	if err := gt.hs.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("gateway http shutdown: %w", err)
	}
	for _, ls := range gt.locals {
		if err := ls.drain(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replica: %w", err)
		}
	}
	for i, c := range gt.children {
		if err := c.drain(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("replica %d: %w", i, err)
		}
	}
	if firstErr == nil {
		gt.stopOnce.Do(func() {}) // drained: stop() has nothing left to do
	}
	return firstErr
}

func (gt *gatewayTarget) stop() {
	gt.stopOnce.Do(func() {
		if gt.hs != nil {
			gt.hs.Close()
		}
		if gt.gw != nil {
			gt.gw.Close()
		}
		for _, ls := range gt.locals {
			ls.stop()
		}
		for _, c := range gt.children {
			c.stop()
		}
	})
	if gt.binDir != "" {
		os.RemoveAll(gt.binDir)
		gt.binDir = ""
	}
}

// chaos is the kill-restart controller: every ChaosInterval it opens a
// chaos phase, SIGKILLs one child process mid-traffic (round-robin over
// children: the one bwaserve of a single-server target, or a gateway
// fleet's replicas), restarts it on the same port, waits for health, and
// opens the next steady phase. Workers keep running throughout — the
// client's transport retries, or the gateway's passive failure detection
// plus partition retry, are the resilience path under test.
func (r *runner) chaos(ctx context.Context, children []*childServer, deadline time.Time) {
	for i := 1; ; i++ {
		t := time.NewTimer(r.o.ChaosInterval)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
		// Leave room for recovery and a post-chaos steady window before
		// the run's deadline.
		if time.Until(deadline) < r.o.ChaosInterval/2+2*time.Second {
			return
		}
		victim := children[(i-1)%len(children)]
		r.logf("soak: chaos %d: SIGKILL %s (pid %d)", i, victim.baseURL, victim.pid())
		r.beginPhase(fmt.Sprintf("chaos-%d", i))
		if err := victim.kill(); err != nil {
			r.violate("chaos-restart", "kill %s: %v", victim.baseURL, err)
			return
		}
		if err := victim.restart(ctx); err != nil {
			if ctx.Err() == nil {
				r.violate("chaos-restart", "restart %s: %v", victim.baseURL, err)
			}
			return
		}
		r.logf("soak: chaos %d: %s back as pid %d", i, victim.baseURL, victim.pid())
		r.beginPhase(fmt.Sprintf("steady-%d", i))
	}
}
