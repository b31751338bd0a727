package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running wmx process. Its stderr is watched for the first
// output (the batch modes' start banner) and for the serve mode's listen
// address.
type proc struct {
	cmd   *exec.Cmd
	start time.Time
	err   *stderrWatch
	done  chan struct{} // closed when Wait has returned
	state *os.ProcessState
	wait  error
	end   time.Time
}

// stderrWatch is the child's stderr sink.
type stderrWatch struct {
	mu       sync.Mutex
	buf      bytes.Buffer
	first    time.Time
	firstCh  chan struct{}
	addr     string
	listenCh chan struct{}
}

func (w *stderrWatch) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.first.IsZero() {
		w.first = time.Now()
		close(w.firstCh)
	}
	w.buf.Write(p)
	if w.addr == "" {
		const marker = "listening on http://"
		s := w.buf.String()
		if i := strings.Index(s, marker); i >= 0 {
			rest := s[i+len(marker):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				w.addr = rest[:j]
				close(w.listenCh)
			}
		}
	}
	return len(p), nil
}

func (w *stderrWatch) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// spawn starts wmx with args in dir, its stdout going to stdout (nil
// discards it). The child is killed if the harness dies first.
func spawn(e *env, dir string, stdout io.Writer, args ...string) (*proc, error) {
	cmd := exec.Command(e.cfg.wmx, args...)
	cmd.Dir = dir
	cmd.Stdout = stdout
	w := &stderrWatch{firstCh: make(chan struct{}), listenCh: make(chan struct{})}
	cmd.Stderr = w
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{cmd: cmd, err: w, done: make(chan struct{})}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start wmx: %w", err)
	}
	go func() {
		p.wait = cmd.Wait()
		p.end = time.Now()
		p.state = cmd.ProcessState
		close(p.done)
	}()
	return p, nil
}

// finish waits for the process to exit, killing it after timeout. It
// returns an error unless the process exited with status 0.
func (p *proc) finish(timeout time.Duration) error {
	select {
	case <-p.done:
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("wmx %v: killed after %v", p.cmd.Args[1:], timeout)
	}
	if p.wait != nil {
		return fmt.Errorf("wmx %v: %v; stderr tail: %s", p.cmd.Args[1:], p.wait, tail(p.err.String()))
	}
	return nil
}

// terminate asks the process to stop with SIGTERM and waits for it,
// killing it if it has not exited within timeout.
func (p *proc) terminate(timeout time.Duration) error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	return p.finish(timeout)
}

// kill stops the process at once and waits for it.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	<-p.done
}

// firstOutput waits for the process's first stderr write and returns its
// delay after spawn in seconds.
func (p *proc) firstOutput(timeout time.Duration) (float64, error) {
	select {
	case <-p.err.firstCh:
	case <-p.done:
		return 0, fmt.Errorf("wmx %v exited before any output: %v", p.cmd.Args[1:], p.wait)
	case <-time.After(timeout):
		return 0, fmt.Errorf("wmx %v: no output within %v", p.cmd.Args[1:], timeout)
	}
	p.err.mu.Lock()
	defer p.err.mu.Unlock()
	return p.err.first.Sub(p.start).Seconds(), nil
}

// wall returns the exited process's lifetime in seconds.
func (p *proc) wall() float64 { return p.end.Sub(p.start).Seconds() }

// peakRSS returns the exited process's peak resident set in MiB.
func (p *proc) peakRSS() float64 {
	if ru, ok := p.state.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func tail(s string) string {
	if len(s) > 400 {
		return "..." + s[len(s)-400:]
	}
	return s
}
