package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDir is where the benchmark builds and runs, inside the checkout
// (the directory is git-ignored). Every run gets its own temporary
// directory under it for binaries, input files and data dirs.
const buildDir = ".bench_build"

// runPrefix names the per-run temporary directories; a process whose
// binary lives under one is a child of some benchmark run.
const runPrefix = "servebench-run-"

// buildBinaries compiles the named commands of the checkout (./cmd/<name>)
// into dir.
func buildBinaries(dir string, names ...string) error {
	for _, name := range names {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build %s: %w", name, err)
		}
	}
	return nil
}

// runChildren lists live processes whose binary path starts with
// prefix: with a run's temporary directory, that run's children,
// including shards an incrouter spawned; with buildDir/runPrefix, the
// children of any run. Zombies have ended and are not listed.
func runChildren(prefix string) []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	var pids []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil || pid == os.Getpid() {
			continue
		}
		argv, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err != nil || !bytes.HasPrefix(argv, []byte(prefix)) {
			continue
		}
		if procState(pid) == 'Z' {
			continue
		}
		pids = append(pids, pid)
	}
	return pids
}

// procState is the state letter of /proc/<pid>/stat, 0 if the process
// is gone.
func procState(pid int) byte {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	i := bytes.LastIndexByte(b, ')')
	if i < 0 || i+2 >= len(b) {
		return 0
	}
	return b[i+2]
}

// killAll SIGKILLs every live process whose binary path starts with
// prefix and waits until each has ended, up to timeout.
func killAll(prefix string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pids := runChildren(prefix)
		if len(pids) == 0 {
			return nil
		}
		for _, pid := range pids {
			syscall.Kill(pid, syscall.SIGKILL)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("processes %v still alive after SIGKILL", pids)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// child is one spawned serving process.
type child struct {
	cmd  *exec.Cmd
	done chan struct{}
	log  string
}

// spawn starts argv with its output in logPath. A goroutine reaps it, so
// its end is observable on done.
func spawn(argv []string, logPath string) (*child, error) {
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	cmd.Stdout, cmd.Stderr = f, f
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{}), log: logPath}
	go func() {
		cmd.Wait()
		f.Close()
		close(c.done)
	}()
	return c, nil
}

// stop kills the child and waits for it to be reaped.
func (c *child) stop() {
	c.cmd.Process.Kill()
	<-c.done
}

// exited reports whether the child has ended.
func (c *child) exited() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// logTail is the end of the child's log, for error messages.
func (c *child) logTail() string {
	b, _ := os.ReadFile(c.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
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

// portFree reports whether a loopback port can be bound right now.
func portFree(p int) bool {
	l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
	if err != nil {
		return false
	}
	l.Close()
	return true
}

// freeBasePort finds a port p such that p+2i is free for every shard i,
// the layout incrouter -spawn gives its children, and none of them is
// avoid: the router's own port, free until the router binds it.
func freeBasePort(shards, avoid int) (int, error) {
	for try := 0; try < 50; try++ {
		p, err := freePort()
		if err != nil {
			return 0, err
		}
		ok := true
		for i := 0; i < shards && ok; i++ {
			q := p + 2*i
			ok = q != avoid && q < 65536 && (i == 0 || portFree(q))
		}
		if ok {
			return p, nil
		}
	}
	return 0, fmt.Errorf("no free base port for %d shards", shards)
}

// peakRSSMiB sums VmHWM over the live processes whose binary path
// starts with prefix: the serving processes' peak resident memory in
// MiB, and how many processes it covers.
func peakRSSMiB(prefix string) (float64, int) {
	var kib float64
	pids := runChildren(prefix)
	for _, pid := range pids {
		kib += statusField(pid, "VmHWM:")
	}
	return kib / 1024, len(pids)
}

// statusField reads a kB-valued field of /proc/<pid>/status.
func statusField(pid int, key string) float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if fields := strings.Fields(sc.Text()); len(fields) >= 2 && fields[0] == key {
			v, _ := strconv.ParseFloat(fields[1], 64)
			return v
		}
	}
	return 0
}

// cpuSteal reads the machine's cumulative CPU time as /proc/stat counts
// it: total and stolen (time the hypervisor gave to someone else).
func cpuSteal() (total, steal float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
