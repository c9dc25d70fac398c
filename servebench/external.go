package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many times a run brings its topology up; setup_s
// is the median. All but the last are torn down again at once.
const setupRepeats = 3

// readyTimeout bounds one topology's start.
const readyTimeout = 90 * time.Second

// external is the topology under test as real processes: one incgraphd,
// or incrouter -spawn with its two shard daemons.
type external struct {
	root  string // the run's temporary directory
	proc  *child
	tgt   target
	setup float64 // seconds from spawn to every class answering
}

// startExternal spawns the workload's serving process(es) from the
// binaries in dir and waits until every hosted class answers GET
// /query with 200.
func startExternal(w workload, in *inputs, dir string, k int) (*external, error) {
	dataDir := filepath.Join(dir, fmt.Sprintf("data-%d", k))
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	var argv []string
	if w.Routed {
		base, err := freeBasePort(2, port)
		if err != nil {
			return nil, err
		}
		argv = []string{filepath.Join(dir, "incrouter"), "-spawn",
			"-incgraphd", filepath.Join(dir, "incgraphd"),
			"-shards", "2", "-replicas", "0",
			"-base-port", strconv.Itoa(base), "-listen", addr,
			"-data-root", dataDir, "-fsync", "always",
			"-graph", in.GraphPath, "-algos", strings.Join(w.Algos, ","),
			"-src", strconv.Itoa(ssspSource), "-log-level", "warn"}
	} else {
		argv = []string{filepath.Join(dir, "incgraphd"),
			"-listen", addr, "-data-dir", dataDir, "-fsync", "always",
			"-graph", in.GraphPath, "-algos", strings.Join(w.Algos, ","),
			"-src", strconv.Itoa(ssspSource), "-log-level", "warn"}
		if in.Pattern != nil {
			argv = append(argv, "-pattern", in.PatternPath)
		}
	}
	t0 := time.Now()
	p, err := spawn(argv, filepath.Join(dir, fmt.Sprintf("serve-%d.log", k)))
	if err != nil {
		return nil, err
	}
	e := &external{root: dir, proc: p, tgt: target{Base: "http://" + addr, Routed: w.Routed, Algos: w.Algos}}
	if err := waitReady(e.tgt, p, t0.Add(readyTimeout)); err != nil {
		e.stop()
		return nil, err
	}
	e.setup = time.Since(t0).Seconds()
	return e, nil
}

// waitReady polls until every hosted class answers GET /query/{class}
// with 200 (through the router: after its /healthz reports every shard
// up).
func waitReady(t target, p *child, deadline time.Time) error {
	c := newClient()
	defer c.CloseIdleConnections()
	paths := []string{}
	if t.Routed {
		paths = append(paths, "/healthz")
	}
	for _, a := range t.Algos {
		paths = append(paths, "/query/"+a)
	}
	for _, path := range paths {
		for {
			code, body, err := do(c, http.MethodGet, t.Base+path, nil)
			if err == nil && code == http.StatusOK {
				if path == "/healthz" {
					break
				}
				// The answer must be the target's own kind (a router's
				// epoch vector, a daemon's epoch), not another process's
				// on the same port.
				if _, err = t.queryEpochs(body); err == nil {
					break
				}
			}
			if p.exited() {
				return fmt.Errorf("serving process exited during start:\n%s", p.logTail())
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s not ready after %v (status %d, err %v)", path, readyTimeout, code, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// stop kills the topology, including any shard daemons a router
// spawned, and waits until every process has ended.
func (e *external) stop() {
	e.proc.stop()
	if err := killAll(e.root+"/", 10*time.Second); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
	}
}

// rssMiB is the summed peak RSS of the topology's processes.
func (e *external) rssMiB() (float64, int) { return peakRSSMiB(e.root + "/") }
