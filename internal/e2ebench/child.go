package e2ebench

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// scrubbedEnv lists variables that would switch the children off the
// defaults users get (the VM engine and superinstruction policy).
var scrubbedEnv = []string{"MAT2C_VM_ENGINE", "MAT2C_VM_SUPERINST"}

// ScrubbedEnviron returns the process environment without the variables
// that select non-default VM behaviour, and whether any were present.
func ScrubbedEnviron() ([]string, bool) {
	var out []string
	found := false
	for _, kv := range os.Environ() {
		drop := false
		for _, name := range scrubbedEnv {
			if strings.HasPrefix(kv, name+"=") {
				drop, found = true, true
			}
		}
		if !drop {
			out = append(out, kv)
		}
	}
	return out, found
}

// Binaries are the programs the untraced workloads drive.
type Binaries struct {
	ASIPDSE string
	Mat2cd  string
}

// Build compiles asipdse and mat2cd from the module rooted at root into
// dir.
func Build(ctx context.Context, root, dir string) (Binaries, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Binaries{}, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return Binaries{}, err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", abs+string(filepath.Separator), "./cmd/asipdse", "./cmd/mat2cd")
	cmd.Dir = root
	cmd.Env, _ = ScrubbedEnviron()
	if out, err := cmd.CombinedOutput(); err != nil {
		return Binaries{}, fmt.Errorf("building asipdse and mat2cd: %v\n%s", err, out)
	}
	return Binaries{ASIPDSE: filepath.Join(abs, "asipdse"), Mat2cd: filepath.Join(abs, "mat2cd")}, nil
}

// procRun is one finished child process as seen from outside.
type procRun struct {
	wall   time.Duration
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set size
	stdout []byte
	err    error
}

// runProc runs a child to completion and measures it.
func runProc(ctx context.Context, bin string, args ...string) procRun {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Env, _ = ScrubbedEnviron()
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	begin := time.Now()
	err := cmd.Run()
	r := procRun{wall: time.Since(begin), stdout: stdout.Bytes()}
	if err != nil {
		r.err = fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(stderr.String()))
	}
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = ps.UserTime() + ps.SystemTime()
		r.rssMB = maxRSSMB(ps)
	}
	return r
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// daemon is a running mat2cd child.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, valid after done
}

// startDaemon starts mat2cd on a free loopback port with the given
// flags, its output going to logPath, and waits until /healthz answers.
// A port taken between probing and binding is retried on another.
func startDaemon(bin, logPath string, flags ...string) (*daemon, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(bin, logPath, flags)
		if err == nil {
			return d, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

func tryStartDaemon(bin, logPath string, flags []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	cmd.Env, _ = ScrubbedEnviron()
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start mat2cd: %w", err)
	}
	d := &daemon{cmd: cmd, url: "http://" + addr, done: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.done)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return nil, fmt.Errorf("mat2cd exited during start-up (%v); see %s", d.err, logPath)
		default:
		}
		resp, err := http.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, fmt.Errorf("mat2cd did not become healthy within 15s; see %s", logPath)
}

// freeAddr returns a loopback address with a port free at the time of
// the call.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within 20 seconds, and waits for it. It returns the exit
// state, from which peak memory is read, and an error unless the
// daemon shut down cleanly.
func (d *daemon) stop() (*os.ProcessState, error) {
	select {
	case <-d.done:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.done:
		case <-time.After(20 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
		}
	}
	return d.cmd.ProcessState, d.err
}

// cpuTime reports the daemon's user+system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) { return procCPU(d.cmd.Process.Pid) }
