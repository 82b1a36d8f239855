package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// cacheBudget caps each daemon's in-memory hot tier and its result
// cache. Every operation of cold_analyze and ingest_stream adds a fresh
// trace and cold_analyze a fresh report; with the default budgets
// (256 and 64 MiB) the daemon's RSS would grow with the operation
// count. 8 MiB holds ~16 traces or ~28 default-suite reports of the
// generator's size, so memory levels off early in the run, and the ring
// probe's traces and reports stay cached.
const cacheBudget = "8388608"

// daemon is one memgazed child process.
type daemon struct {
	cmd     *exec.Cmd
	addr    string // host:port it listens on
	dataDir string
	log     bytes.Buffer // stderr after the listening line, for failure reports
	logMu   sync.Mutex
	drained chan struct{} // closed once stderr hits EOF
}

// freePort reserves an ephemeral loopback port and releases it, for
// ring members that must know every peer's address before starting.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon launches memgazed on addr with data directory dataDir and
// waits until /v1/readyz answers 200. A port of 0 lets the daemon pick
// one; d.addr is the address it reports listening on.
func startDaemon(bin, addr, dataDir string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", addr, "-data-dir", dataDir, "-store-budget", cacheBudget, "-result-cache", cacheBudget}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), addr: addr, dataDir: dataDir, drained: make(chan struct{})}
	// A benchmark killed mid-run must not leave daemons behind.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting memgazed: %w", err)
	}
	listening := make(chan string, 1)
	go d.drain(stderr, listening)
	select {
	case d.addr = <-listening:
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("memgazed exited before listening: %s", d.logText())
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("memgazed did not listen within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(d.url() + "/v1/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				http.DefaultClient.CloseIdleConnections()
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("memgazed on %s not ready within 30s", d.addr)
		}
		time.Sleep(250 * time.Microsecond)
	}
}

// drain consumes the daemon's stderr, sending the address of the
// listening line and keeping the rest for error reports.
func (d *daemon) drain(r io.Reader, listening chan<- string) {
	defer close(d.drained)
	sc := bufio.NewScanner(r)
	seen := false
	for sc.Scan() {
		line := sc.Text()
		if _, addr, ok := strings.Cut(line, "listening on "); ok && !seen {
			seen = true
			listening <- strings.TrimSpace(addr)
			continue
		}
		d.logMu.Lock()
		if d.log.Len() < 64<<10 {
			d.log.WriteString(line + "\n")
		}
		d.logMu.Unlock()
	}
}

func (d *daemon) logText() string {
	d.logMu.Lock()
	defer d.logMu.Unlock()
	return strings.TrimSpace(d.log.String())
}

func (d *daemon) url() string { return "http://" + d.addr }

// stop drains the daemon with SIGTERM, killing it if it has not exited
// within 15s, and waits for it.
func (d *daemon) stop() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-d.drained
		d.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-done
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// diskBytes is the size of every file in the daemon's data directory.
func (d *daemon) diskBytes() (int64, error) {
	return dirBytes(d.dataDir)
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// fleet is a set of running daemons; stop stops them all.
type fleet []*daemon

func (f fleet) stop() {
	var wg sync.WaitGroup
	for _, d := range f {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.stop()
		}()
	}
	wg.Wait()
}

func (f fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range f {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += mb
	}
	return total, nil
}

func (f fleet) diskBytes() (int64, error) {
	var total int64
	for _, d := range f {
		n, err := d.diskBytes()
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}
