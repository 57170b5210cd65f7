package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pskyline"
	"pskyline/internal/core"
)

// streamName is the one stream the http-ingest server hosts.
const streamName = "bench"

// appendNDJSON appends one element as a line of the server's push format.
// Floats use the shortest exact form, so the server decodes the same bits.
func appendNDJSON(b []byte, e pskyline.Element) []byte {
	b = append(b, `{"point":[`...)
	for i, x := range e.Point {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, x, 'g', -1, 64)
	}
	b = append(b, `],"prob":`...)
	b = strconv.AppendFloat(b, e.Prob, 'g', -1, 64)
	b = append(b, `,"ts":`...)
	b = strconv.AppendInt(b, e.TS, 10)
	return append(b, "}\n"...)
}

// encodeChunks encodes the prefill as NDJSON request bodies of
// prefillChunk elements each.
func encodeChunks(in *inputs) [][]byte {
	var out [][]byte
	in.fill(func(es []pskyline.Element) (uint64, error) {
		var b []byte
		for _, e := range es {
			b = appendNDJSON(b, e)
		}
		out = append(out, b)
		return 0, nil
	})
	return out
}

// httpSys is a `pskyline -streams ... -http` subprocess with one durable
// stream, written with NDJSON POSTs and read with skyline GETs.
type httpSys struct {
	w       workload
	dir     string
	cmd     *exec.Cmd
	logDone chan struct{}
	base    string
	cl      *http.Client

	body    []byte // staged request body
	staged  int    // elements in body
	sent    int64  // request body bytes sent by write
	written int64  // elements sent by write
}

// streamSpec is the -streams value matching the workload's operator.
func streamSpec(w workload) string {
	qs := make([]string, len(w.qs))
	for i, q := range w.qs {
		qs[i] = strconv.FormatFloat(q, 'g', -1, 64)
	}
	return fmt.Sprintf("%s:dims=%d,window=%d,q=%s,wal=on", streamName, w.dims, w.window, strings.Join(qs, "|"))
}

// startHTTP starts the server and waits until it announces its address.
// The prefill bodies are posted by the caller.
func startHTTP(w workload, bin, workdir string) (s *httpSys, err error) {
	dir, err := os.MkdirTemp(workdir, "http-")
	if err != nil {
		return nil, err
	}
	s = &httpSys{w: w, dir: dir, cl: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	s.cmd = exec.Command(bin, "-streams", streamSpec(w), "-wal", filepath.Join(dir, "wal"), "-http", "127.0.0.1:0")
	// The server must not outlive a benchmark that dies without closing it.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err = s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	addr := make(chan string, 1)
	s.logDone = make(chan struct{})
	go func() {
		defer close(s.logDone)
		sc := bufio.NewScanner(stderr)
		const announce = "pskyline: serving on http://"
		found := false
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), announce); ok && !found {
				found = true
				addr <- a
			}
		}
		if !found {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			return nil, errors.New("server exited before announcing its address")
		}
		s.base = "http://" + a
	case <-time.After(60 * time.Second):
		return nil, errors.New("server did not announce its address")
	}
	return s, nil
}

// buildHTTP starts the server, fills its window and waits for /healthz.
func buildHTTP(w workload, bin, workdir string, prefill [][]byte) (*httpSys, error) {
	s, err := startHTTP(w, bin, workdir)
	if err != nil {
		return nil, err
	}
	for _, b := range prefill {
		if _, err := s.post(b); err != nil {
			s.close()
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	resp, err := s.cl.Get(s.base + "/healthz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// post sends one NDJSON body and returns how many elements the server
// accepted.
func (s *httpSys) post(body []byte) (int, error) {
	resp, err := s.cl.Post(s.base+"/streams/"+streamName+"/push", "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("push: %s: %s", resp.Status, bytes.TrimSpace(raw))
	}
	var r struct{ Accepted int }
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, fmt.Errorf("push response: %w", err)
	}
	return r.Accepted, nil
}

func (s *httpSys) stage(es []pskyline.Element) {
	s.body = s.body[:0]
	for _, e := range es {
		s.body = appendNDJSON(s.body, e)
	}
	s.staged = len(es)
}

func (s *httpSys) write() error {
	n, err := s.post(s.body)
	if err != nil {
		return err
	}
	s.sent += int64(len(s.body))
	s.written += int64(n)
	if n != s.staged {
		return fmt.Errorf("push accepted %d of %d", n, s.staged)
	}
	return nil
}

// skyline GETs the stream's skyline and returns the raw body.
func (s *httpSys) skyline() ([]byte, error) {
	resp, err := s.cl.Get(s.base + "/streams/" + streamName + "/skyline")
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("skyline: %s", resp.Status)
	}
	return raw, nil
}

func (s *httpSys) read() error {
	_, err := s.skyline()
	return err
}

// check compares GET /streams/bench/skyline with ref's q_1-skyline.
func (s *httpSys) check(ref *core.Engine) error {
	raw, err := s.skyline()
	if err != nil {
		return err
	}
	var got struct {
		Processed uint64
		Skyline   []struct {
			Seq  uint64
			Psky float64
		}
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("skyline response: %w", err)
	}
	if got.Processed != ref.Processed() {
		return fmt.Errorf("http: processed %d, reference %d", got.Processed, ref.Processed())
	}
	ans := make([]answer, len(got.Skyline))
	for i, p := range got.Skyline {
		ans[i] = answer{p.Seq, math.Float64bits(p.Psky)}
	}
	return compareAnswers("http skyline", ans, engineAnswers(ref, 1))
}

// peakRSSMB reads the server's peak resident set size (VmHWM).
func (s *httpSys) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// close stops the server (SIGTERM, then SIGKILL after a grace period),
// waits for it and its log reader, and removes its data directory.
func (s *httpSys) close() error {
	var errs []error
	if s.cmd != nil && s.cmd.Process != nil {
		s.cmd.Process.Signal(syscall.SIGTERM)
		// The log reader ends when the server exits and its stderr closes;
		// Wait must not run before that.
		select {
		case <-s.logDone:
		case <-time.After(30 * time.Second):
			s.cmd.Process.Kill()
			errs = append(errs, errors.New("server ignored SIGTERM"))
			<-s.logDone
		}
		errs = append(errs, s.cmd.Wait())
	}
	s.cl.CloseIdleConnections()
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}
