package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
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

// buildDir holds what a run leaves behind: the butterflyd binary and the
// per-run scratch directory. It is relative to the checkout the benchmark
// is started from and is listed in .gitignore.
const buildDir = ".bench_build"

// buildDaemon compiles cmd/butterflyd from the checkout's sources. The go
// tool's own cache makes a rebuild of unchanged sources cheap, and always
// asking it keeps the binary in step with the tree being measured.
func buildDaemon() (string, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return "", err
	}
	bin, err := filepath.Abs(filepath.Join(buildDir, "butterflyd"))
	if err != nil {
		return "", err
	}
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/butterflyd").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build ./cmd/butterflyd: %w\n%s", err, out)
	}
	return bin, nil
}

// freeAddr reserves a loopback port and releases it for butterflyd to claim.
// The address must survive restarts of the daemon, so ":0" is not an option.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// daemon is one butterflyd subprocess with default GOMAXPROCS, -shards and
// -max-analyze: the system under test of the serve workloads.
type daemon struct {
	bin       string
	addr      string
	debugAddr string
	dataDir   string // "" runs in memory; otherwise -fsync stays at its default, batched
	cmd       *exec.Cmd
	log       bytes.Buffer
}

func newDaemon(bin, dataDir string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	debug, err := freeAddr()
	if err != nil {
		return nil, err
	}
	return &daemon{bin: bin, addr: addr, debugAddr: debug, dataDir: dataDir}, nil
}

// start execs butterflyd and returns the moment of the exec. It does not
// wait for the listener: recovery time is measured from here.
func (d *daemon) start() (time.Time, error) {
	args := []string{"-addr", d.addr, "-debug-addr", d.debugAddr, "-log-level", "warn"}
	if d.dataDir != "" {
		args = append(args, "-data-dir", d.dataDir)
	}
	d.log.Reset()
	cmd := exec.Command(d.bin, args...)
	cmd.Stdout = &d.log
	cmd.Stderr = &d.log
	at := time.Now()
	if err := cmd.Start(); err != nil {
		return at, fmt.Errorf("start butterflyd: %w", err)
	}
	d.cmd = cmd
	return at, nil
}

// waitReady polls until the session listener accepts a connection.
func (d *daemon) waitReady() error {
	deadline := time.Now().Add(20 * time.Second)
	for {
		conn, err := net.DialTimeout("tcp", d.addr, 100*time.Millisecond)
		if err == nil {
			conn.Close()
			return nil
		}
		if time.Now().After(deadline) {
			d.kill()
			return fmt.Errorf("butterflyd did not come up on %s: %v\n%s", d.addr, err, d.log.Bytes())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill delivers SIGKILL and reaps the child: the recovery phase's crash.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.cmd = nil
}

// stop ends the daemon with SIGTERM and checks that it left nothing behind:
// the process is reaped and both of its ports can be bound again.
func (d *daemon) stop() error {
	if d.cmd == nil {
		return nil
	}
	cmd := d.cmd
	d.cmd = nil
	cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		// A daemon signalled before it has installed its handler dies of the
		// signal instead of draining; both are a stop by SIGTERM.
		var ee *exec.ExitError
		bySignal := errors.As(err, &ee) && ee.Sys().(syscall.WaitStatus).Signal() == syscall.SIGTERM
		if err != nil && !bySignal {
			return fmt.Errorf("butterflyd exit after SIGTERM: %w\n%s", err, d.log.Bytes())
		}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		<-exited
		return errors.New("butterflyd ignored SIGTERM for 15s and was killed")
	}
	for _, addr := range []string{d.addr, d.debugAddr} {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("port still bound after butterflyd exited: %w", err)
		}
		ln.Close()
	}
	return nil
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times. It
// is 100 on every Linux platform Go supports.
const clockTick = 100

// cpuSeconds returns the user+system CPU time the daemon has used so far.
func (d *daemon) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after the
	// closing parenthesis are fixed. utime and stime are fields 14 and 15.
	rest := string(data[bytes.LastIndexByte(data, ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", data)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line %q", data)
	}
	return (utime + stime) / clockTick, nil
}

// procStatusMB returns a memory field of /proc/<pid>/status — VmRSS, the
// resident set, or VmHWM, its peak — in MB. ru_maxrss would not do for the
// peak: a child's value starts at its parent's RSS at fork.
func procStatusMB(pid int, field string) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("bad /proc status line %q", sc.Text())
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc status", field)
}

// scrape reads the daemon's /metrics into a map from Prometheus series name
// (labels included) to value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := http.Get("http://" + d.debugAddr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
