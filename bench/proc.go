package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"wdpt/internal/db/snapshot"
)

// serverFlags are the wdptd flags every node runs with beyond its datasets:
// defaults, except a silent query log and an ephemeral port.
var serverFlags = []string{"-listen", "127.0.0.1:0", "-query-log", "off"}

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// buildServer compiles cmd/wdptd from the working tree into .bench_build
// and returns the binary's path.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "bin", "wdptd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wdptd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/wdptd: %v\n%s", err, out)
	}
	return bin, nil
}

// writeDatasets writes every dataset's text file into dir and, for the
// cluster workload, the snapshot its nodes load instead.
func (w *workload) writeDatasets(dir string) error {
	for _, ds := range w.datasets {
		if err := os.WriteFile(filepath.Join(dir, ds.name+".txt"), []byte(ds.text), 0o644); err != nil {
			return err
		}
		if w.cluster {
			if err := snapshot.Write(filepath.Join(dir, ds.name+".snap"), ds.db); err != nil {
				return err
			}
		}
	}
	return nil
}

// node is one running wdptd process.
type node struct {
	cmd  *exec.Cmd
	base string // http://host:port
	// drained is closed when the process's stdout has been read to its end,
	// which Wait must not be called before.
	drained chan struct{}
	once    sync.Once
}

var servingLine = regexp.MustCompile(`^wdptd: serving .* on (\S+) `)

// startNode spawns wdptd over the datasets in dir and returns once it has
// printed its listen address. The kernel kills the child if this process
// dies without reaching stop.
func startNode(bin, dir string, w *workload, extra ...string) (*node, error) {
	args := append([]string{}, serverFlags...)
	for _, ds := range w.datasets {
		args = append(args, "-dataset", ds.name+"="+filepath.Join(dir, ds.name+".txt"))
	}
	if w.cluster {
		args = append(args, "-snapshot-dir", dir)
	}
	cmd := exec.Command(bin, append(args, extra...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	n := &node{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(n.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if m := servingLine.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addr <- m[1]:
				default: // only the first serving line is wanted
				}
			}
		}
	}()
	select {
	case a := <-addr:
		n.base = "http://" + a
		return n, nil
	case <-n.drained:
		n.stop()
		return nil, fmt.Errorf("wdptd exited before serving (args %v)", args)
	}
}

// stop kills the process and waits for it; later calls do nothing.
func (n *node) stop() {
	n.once.Do(func() {
		_ = n.cmd.Process.Kill()
		<-n.drained
		_ = n.cmd.Wait()
	})
}

// awaitHealthy polls /healthz until it answers 200.
func (n *node) awaitHealthy(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if ctx.Err() != nil || time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %v", n.base, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// fleet is the set of processes one workload runs against; front takes the
// callers' requests.
type fleet struct {
	nodes []*node
	front *node
}

// startFleet spawns the workload's topology — one node, or two members and
// a coordinator over them — and waits until every node is healthy.
func startFleet(ctx context.Context, bin, dir string, w *workload, hc *http.Client) (*fleet, error) {
	f := &fleet{}
	add := func(extra ...string) (*node, error) {
		n, err := startNode(bin, dir, w, extra...)
		if err != nil {
			return nil, err
		}
		f.nodes = append(f.nodes, n)
		return n, n.awaitHealthy(ctx, hc)
	}
	var err error
	if w.cluster {
		var peers []string
		for i := 0; i < 2 && err == nil; i++ {
			var m *node
			if m, err = add(); err == nil {
				peers = append(peers, m.base)
			}
		}
		if err == nil {
			f.front, err = add("-role", "coordinator", "-cluster-peers", strings.Join(peers, ","))
		}
	} else {
		f.front, err = add()
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *fleet) stop() {
	for _, n := range f.nodes {
		n.stop()
	}
}

// clockTick is the kernel's USER_HZ, the unit of utime and stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTick = 100

// cpuSeconds returns the user+system CPU time the fleet's processes have
// used, from /proc/<pid>/stat.
func (f *fleet) cpuSeconds() (float64, error) {
	total := 0.0
	for _, n := range f.nodes {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		// The fields after the parenthesised command name start at state (3).
		fields := strings.Fields(string(data[strings.LastIndexByte(string(data), ')')+1:]))
		if len(fields) < 13 {
			return 0, fmt.Errorf("short /proc stat line: %q", data)
		}
		utime, err1 := strconv.ParseFloat(fields[11], 64)
		stime, err2 := strconv.ParseFloat(fields[12], 64)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("bad /proc stat line: %q", data)
		}
		total += (utime + stime) / clockTick
	}
	return total, nil
}

// peakRSSMB returns the largest VmHWM among the fleet's processes.
func (f *fleet) peakRSSMB() (float64, error) {
	peak := 0.0
	for _, n := range f.nodes {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", n.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err != nil {
					return 0, fmt.Errorf("bad VmHWM line: %q", line)
				}
				peak = max(peak, kb/1024)
			}
		}
	}
	return peak, nil
}
