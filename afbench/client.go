package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// reply is the part of a protocol response the benchmark reads.
type reply struct {
	OK     bool            `json:"ok"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// caller sends one request line and returns the raw reply line. One
// caller serves one client; it is not shared between goroutines.
type caller interface {
	call(line []byte) ([]byte, error)
}

// httpCaller posts to /v1/query over its own keep-alive connection.
type httpCaller struct {
	url string
	c   *http.Client
}

func newHTTPCaller(addr string) *httpCaller {
	return &httpCaller{
		url: "http://" + addr + "/v1/query",
		c: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
	}
}

func (h *httpCaller) call(line []byte) ([]byte, error) {
	resp, err := h.c.Post(h.url, "application/json", bytes.NewReader(line))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}

func (h *httpCaller) close() { h.c.CloseIdleConnections() }

// pipeCaller speaks afserve's stdin/stdout protocol, one request at a time.
type pipeCaller struct {
	w io.Writer
	r *bufio.Reader
}

func (p *pipeCaller) call(line []byte) ([]byte, error) {
	buf := make([]byte, 0, len(line)+1)
	buf = append(append(buf, line...), '\n')
	if _, err := p.w.Write(buf); err != nil {
		return nil, err
	}
	return p.r.ReadBytes('\n')
}

// sample is one measured request's outcome.
type sample struct {
	lat   time.Duration
	ok    bool
	reply []byte
}

// replay drives reqs through a closed loop of len(callers) clients: each
// client takes the next unsent request, waits for its reply, repeats. It
// returns per-request outcomes in trace order and the wall time.
func replay(callers []caller, reqs []request, each func(i int)) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range callers {
		wg.Add(1)
		go func(c caller) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				s := time.Now()
				b, err := c.call(reqs[i].Line)
				lat := time.Since(s)
				ok := false
				if err == nil {
					var r reply
					ok = json.Unmarshal(b, &r) == nil && r.OK
				}
				out[i] = sample{lat: lat, ok: ok, reply: b}
				if each != nil {
					each(i)
				}
			}
		}(c)
	}
	wg.Wait()
	return out, time.Since(t0)
}

// afserve is one running server process.
type afserve struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	stdout *bufio.Reader
	addr   string
	spill  string
	exited chan struct{} // closed once the process has been waited for
}

// serverArgs are the afserve flags for a workload.
func serverArgs(w workload, addr, spill string) []string {
	args := []string{"-dataset", dataset, "-scale", fmt.Sprint(graphScale), "-seed", fmt.Sprint(serverSeed),
		"-j", fmt.Sprint(w.Jobs), "-workers", fmt.Sprint(w.Workers), "-queue", "16"}
	if w.Budget > 0 {
		args = append(args, "-maxbytes", fmt.Sprint(w.Budget))
	}
	if spill != "" {
		args = append(args, "-spill-dir", spill)
	}
	if addr != "" {
		args = append(args, "-metrics-addr", addr)
	}
	return args
}

// freeAddr reserves a loopback port for afserve's HTTP listener.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startServer spawns afserve for w and waits until it answers a stats
// query on its transport.
func startServer(bin, workDir string, w workload) (*afserve, error) {
	s := &afserve{}
	if w.Spill {
		dir, err := os.MkdirTemp(workDir, "spill-")
		if err != nil {
			return nil, err
		}
		s.spill = dir
	}
	if w.HTTP {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		s.addr = addr
	}
	s.cmd = exec.Command(bin, serverArgs(w, s.addr, s.spill)...)
	s.cmd.Stderr = os.Stderr
	// The server dies with the benchmark, however the benchmark ends.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var err error
	if s.stdin, err = s.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	s.stdout = bufio.NewReaderSize(out, 1<<20)
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	s.exited = make(chan struct{})
	go func() { s.cmd.Wait(); close(s.exited) }()
	// The pipe answers once afserve reads stdin; HTTP is polled until the
	// listener is up.
	deadline := time.Now().Add(60 * time.Second)
	for {
		_, err := s.stats()
		if err == nil {
			return s, nil
		}
		select {
		case <-s.exited:
			err = fmt.Errorf("afserve exited: %v", err)
		default:
			if w.HTTP && time.Now().Before(deadline) {
				time.Sleep(2 * time.Millisecond)
				continue
			}
		}
		s.stop()
		return nil, fmt.Errorf("afserve did not become ready: %v", err)
	}
}

// callers returns n fresh clients on the server's transport. Pipe
// clients share stdin/stdout, so pipe workloads run one client.
func (s *afserve) callers(n int) []caller {
	out := make([]caller, n)
	for i := range out {
		if s.addr != "" {
			out[i] = newHTTPCaller(s.addr)
		} else {
			out[i] = &pipeCaller{w: s.stdin, r: s.stdout}
		}
	}
	return out
}

// stats asks the server for its ledger over its own transport.
func (s *afserve) stats() (statsReply, error) {
	c := s.callers(1)[0]
	if h, ok := c.(*httpCaller); ok {
		h.c.Timeout = 2 * time.Second
		defer h.close()
	}
	b, err := c.call([]byte(`{"op":"stats"}`))
	if err != nil {
		return statsReply{}, err
	}
	var r struct {
		OK     bool       `json:"ok"`
		Result statsReply `json:"result"`
	}
	if err := json.Unmarshal(b, &r); err != nil || !r.OK {
		return statsReply{}, fmt.Errorf("stats reply %q: %v", b, err)
	}
	return r.Result, nil
}

// peakRSSMB reads the server's VmHWM.
func (s *afserve) peakRSSMB() float64 {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// stop closes stdin (afserve's shutdown signal), waits for the process,
// and removes its spill directory.
func (s *afserve) stop() {
	s.stdin.Close()
	select {
	case <-s.exited:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		<-s.exited
	}
	if s.spill != "" {
		os.RemoveAll(s.spill)
	}
}

// statsReply mirrors the stats op's ledger fields the benchmark reads.
type statsReply struct {
	SessionsCreated       int64
	SessionsEvicted       int64
	Spills                int64
	SpillBytes            int64
	SpillLoads            int64
	DeltasApplied         int64
	PoolsRepaired         int64
	RepairDrawsResampled  int64
	RepairDrawsSaved      int64
	PmaxDrawsReused       int64
	Coalesced             int64
	Admitted              int64
	Rejected              int64
	Solve                 kindCounts
	SolveMax              kindCounts
	AcceptanceProbability kindCounts
	Pmax                  kindCounts
	EstimatePmax          kindCounts
	TopK                  kindCounts
}

type kindCounts struct{ Hits, Misses int64 }

// sub returns the counter deltas a−b.
func (a statsReply) sub(b statsReply) statsReply {
	k := func(x, y kindCounts) kindCounts { return kindCounts{x.Hits - y.Hits, x.Misses - y.Misses} }
	return statsReply{
		SessionsCreated: a.SessionsCreated - b.SessionsCreated, SessionsEvicted: a.SessionsEvicted - b.SessionsEvicted,
		Spills: a.Spills - b.Spills, SpillBytes: a.SpillBytes - b.SpillBytes, SpillLoads: a.SpillLoads - b.SpillLoads,
		DeltasApplied: a.DeltasApplied - b.DeltasApplied, PoolsRepaired: a.PoolsRepaired - b.PoolsRepaired,
		RepairDrawsResampled: a.RepairDrawsResampled - b.RepairDrawsResampled, RepairDrawsSaved: a.RepairDrawsSaved - b.RepairDrawsSaved,
		PmaxDrawsReused: a.PmaxDrawsReused - b.PmaxDrawsReused, Coalesced: a.Coalesced - b.Coalesced,
		Admitted: a.Admitted - b.Admitted, Rejected: a.Rejected - b.Rejected,
		Solve: k(a.Solve, b.Solve), SolveMax: k(a.SolveMax, b.SolveMax),
		AcceptanceProbability: k(a.AcceptanceProbability, b.AcceptanceProbability),
		Pmax:                  k(a.Pmax, b.Pmax), EstimatePmax: k(a.EstimatePmax, b.EstimatePmax), TopK: k(a.TopK, b.TopK),
	}
}

// hits and misses over the query kinds.
func (a statsReply) hitsMisses() (int64, int64) {
	var h, m int64
	for _, k := range []kindCounts{a.Solve, a.SolveMax, a.AcceptanceProbability, a.Pmax, a.EstimatePmax, a.TopK} {
		h += k.Hits
		m += k.Misses
	}
	return h, m
}
