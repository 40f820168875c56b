package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one blowfish-serve child process listening on loopback.
type server struct {
	bin   string
	args  []string
	base  string // API listener
	admin string // admin listener: /metrics and /debug/pprof
	cmd   *exec.Cmd
	done  chan struct{} // closed once the process has exited and been reaped
}

// startServer execs bin with args plus fresh loopback API and admin
// listeners, the admin one serving pprof. The child is killed if this
// process dies first.
func startServer(bin string, args []string) (*server, error) {
	var addrs [2]string
	for i := range addrs {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addrs[i] = "127.0.0.1:" + strconv.Itoa(port)
	}
	s := &server{
		bin:   bin,
		args:  append([]string{"-addr", addrs[0], "-metrics-addr", addrs[1], "-pprof"}, args...),
		base:  "http://" + addrs[0],
		admin: "http://" + addrs[1],
	}
	return s, s.exec()
}

func (s *server) exec() error {
	s.cmd = exec.Command(s.bin, s.args...)
	s.cmd.Stdout = os.Stderr
	s.cmd.Stderr = os.Stderr
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("starting %s: %w", s.bin, err)
	}
	s.done = make(chan struct{})
	go func() {
		_ = s.cmd.Wait()
		close(s.done)
	}()
	return nil
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /v1/healthz until it answers 200.
func (s *server) waitHealthy(c *http.Client, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	var buf bytes.Buffer
	health := request{method: http.MethodGet, path: "/v1/healthz"}
	for {
		_, err := send(ctx, c, s.base, &health, &buf)
		if err == nil {
			return nil
		}
		select {
		case <-s.done:
			return errors.New("server exited before it became healthy")
		case <-ctx.Done():
			return fmt.Errorf("server not healthy after %v: %v", timeout, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// kill stops the process with SIGKILL and waits until it is reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.done
}

// restart kills the process and execs it again with the same arguments,
// so a durable server recovers from the same data directory.
func (s *server) restart() error {
	s.kill()
	return s.exec()
}

// cpu reads the child's user+system CPU time from /proc/<pid>/stat.
func (s *server) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name start at field 3 (state);
	// utime and stime are fields 14 and 15, in clock ticks of 1/100 s.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSS reads the child's resident-set high-water mark in MiB.
func (s *server) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape fetches and parses the server's /metrics exposition.
func (s *server) scrape(c *http.Client) (exposition, error) {
	b, err := fetch(c, http.MethodGet, s.admin+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	return parseExposition(string(b))
}

// liveHeapMB forces garbage collections in the server and returns the
// heap still allocated after them, in MiB: the memory the server's state
// needs, free of the GC timing that moves its resident size. The first
// collection only moves sync.Pool contents to their victim caches; the
// second frees them.
func (s *server) liveHeapMB(c *http.Client) (float64, error) {
	if _, err := fetch(c, http.MethodGet, s.admin+"/debug/pprof/heap?gc=1", nil); err != nil {
		return 0, err
	}
	b, err := fetch(c, http.MethodGet, s.admin+"/debug/pprof/heap?gc=1&debug=1", nil)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HeapAlloc = "); ok {
			n, err := strconv.ParseFloat(rest, 64)
			return n / (1 << 20), err
		}
	}
	return 0, errors.New("no HeapAlloc in the heap profile")
}
