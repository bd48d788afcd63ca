package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// healthWait bounds how long a daemon may take to answer /healthz.
const healthWait = 15 * time.Second

// daemon is one deviantd child process.
type daemon struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches deviantd on a fresh ephemeral port with stdout
// and stderr appended to a log file in dir, and waits until it answers
// /healthz. A daemon that exits or stays silent fails the call; it is
// always reaped before startDaemon returns an error.
func startDaemon(bin, dir, name string, args ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	logf, err := os.OpenFile(filepath.Join(dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(filepath.Join(bin, "deviantd"), append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = dieWithParent()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	d := &daemon{name: name, base: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	if err := d.waitHealthy(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits,
// or healthWait passes.
func (d *daemon) waitHealthy() error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(healthWait)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up (%v); see %s", d.name, d.err, d.log.Name())
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s not healthy after %v; see %s", d.name, healthWait, d.log.Name())
}

// stop kills the daemon and waits until it has been reaped, so its
// port and memory are free when stop returns.
func (d *daemon) stop() {
	_ = d.cmd.Process.Kill() // fails only if the process already exited
	<-d.done
	d.log.Close()
}

// cpuSeconds returns the daemon's user+system CPU time so far.
func (d *daemon) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", d.name, err)
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := raw[bytes.LastIndexByte(raw, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: short /proc stat", d.name)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("%s: %w", d.name, err)
	}
	return (ut + st) / clockTicks, nil
}

// dieWithParent has the kernel kill a child if the load generator dies
// before reaping it, so an interrupted run leaves no daemon behind.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// clockTicks is USER_HZ, which Linux fixes at 100 for /proc.
const clockTicks = 100

// peakRSSMB returns the daemon's peak resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("%s: %w", d.name, err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", d.name, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", d.name)
}

// system is the set of daemons one workload runs against; front is the
// one clients talk to.
type system struct {
	procs []*daemon
	front *daemon
}

// startStandalone launches one local deviantd.
func startStandalone(bin, dir string) (*system, error) {
	d, err := startDaemon(bin, dir, "deviantd")
	if err != nil {
		return nil, err
	}
	return &system{procs: []*daemon{d}, front: d}, nil
}

// startFleet launches two workers and a coordinator over them.
func startFleet(bin, dir string) (*system, error) {
	s := &system{}
	for i := 1; i <= 2; i++ {
		w, err := startDaemon(bin, dir, fmt.Sprintf("worker%d", i), "-role", "worker")
		if err != nil {
			s.stop()
			return nil, err
		}
		s.procs = append(s.procs, w)
	}
	c, err := startDaemon(bin, dir, "coordinator", "-role", "coordinator",
		"-workers-list", s.procs[0].base+","+s.procs[1].base)
	if err != nil {
		s.stop()
		return nil, err
	}
	s.procs = append(s.procs, c)
	s.front = c
	return s, nil
}

// stop kills and reaps every daemon of the system.
func (s *system) stop() {
	for _, d := range s.procs {
		d.stop()
	}
}

func (s *system) cpuSeconds() (float64, error) {
	total := 0.0
	for _, d := range s.procs {
		c, err := d.cpuSeconds()
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

func (s *system) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range s.procs {
		m, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total, nil
}

// postAnalyze sends one /v1/analyze body and decodes a 200 response.
// Anything else — transport error, timeout, non-200 including 429 and
// 503 — is returned as an error.
func postAnalyze(ctx context.Context, hc *http.Client, base string, body []byte) (*output, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return decodeAnalyze(raw)
}
