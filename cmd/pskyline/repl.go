package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"pskyline"
	"pskyline/internal/netfault"
	"pskyline/internal/repl"
)

// parseReplFault builds the seeded replication fault injector from
// -repl-fault / -repl-fault-seed (nil when no schedule is configured). Like
// -wal-fault-seed, seed 0 means 1 so "no flag" is still deterministic.
func parseReplFault(cfg config) (*netfault.Injector, error) {
	if cfg.replFault == "" {
		return nil, nil
	}
	seed := cfg.replFaultSeed
	if seed == 0 {
		seed = 1
	}
	inj, err := netfault.ParseSchedule(seed, cfg.replFault)
	if err != nil {
		return nil, fmt.Errorf("-repl-fault: %v", err)
	}
	return inj, nil
}

// printReplSummary appends the replication block to -summary output: lag
// per follower plus, with -repl-semisync-k, the semi-sync health machine.
func printReplSummary(w io.Writer, rs *replState) {
	rs.mu.Lock()
	s := rs.server
	rs.mu.Unlock()
	if s == nil {
		return
	}
	st := s.Status()
	fmt.Fprintf(w, "replication: epoch %d, %d follower(s), committed seq %d\n",
		st.Epoch, len(st.Followers), st.Committed)
	if st.SemiSyncK > 0 {
		reason := st.SyncReason
		if reason == "" {
			reason = "-"
		}
		fmt.Fprintf(w, "semi-sync: k=%d state=%s (%s), quorum-acked seq %d\n",
			st.SemiSyncK, st.SyncState, reason, st.QuorumAcked)
		fmt.Fprintf(w, "  waits %d (timeouts %d), degrades %d, upgrades %d, shortfalls %d\n",
			st.Waits, st.WaitTimeouts, st.Degrades, st.Upgrades, st.Shortfalls)
	}
}

// replState tracks the node's replication role for the HTTP surface. It is
// nil-tolerant: a nil state is a standalone node. The role flips once per
// process at most — replica → primary on promotion — under mu.
type replState struct {
	mu       sync.Mutex
	server   *repl.Server      // set on a replicating primary
	follower *repl.Follower    // set on a replica
	promoted *pskyline.Monitor // set when a replica is promoted
}

func (rs *replState) setServer(s *repl.Server) {
	rs.mu.Lock()
	rs.server = s
	rs.mu.Unlock()
}

func (rs *replState) setFollower(f *repl.Follower) {
	rs.mu.Lock()
	rs.follower = f
	rs.mu.Unlock()
}

// role is "standalone", "primary" (replicating, or promoted) or "replica".
func (rs *replState) role() string {
	if rs == nil {
		return "standalone"
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	switch {
	case rs.promoted != nil, rs.server != nil:
		return "primary"
	case rs.follower != nil:
		return "replica"
	default:
		return "standalone"
	}
}

// decorateHealth adds the node role — and, per role, the replication lag
// block — to a /healthz body.
func (rs *replState) decorateHealth(body map[string]any) {
	body["role"] = rs.role()
	if rs == nil {
		return
	}
	rs.mu.Lock()
	s, f, promoted := rs.server, rs.follower, rs.promoted != nil
	rs.mu.Unlock()
	if s != nil {
		body["replication"] = s.Status()
	} else if f != nil && !promoted {
		body["replication"] = f.Info()
	}
}

// writePrometheus appends the role's replication series after the
// operator's own metrics.
func (rs *replState) writePrometheus(w io.Writer) {
	if rs == nil {
		return
	}
	rs.mu.Lock()
	s, f, promoted := rs.server, rs.follower, rs.promoted != nil
	rs.mu.Unlock()
	if s != nil {
		s.WritePrometheus(w)
	} else if f != nil && !promoted {
		f.WritePrometheus(w)
	}
}

// promote flips a replica to primary: the follower seals the stream and
// bumps the fencing epoch, and the node starts accepting writes.
func (rs *replState) promote(h *monitorHandle) (map[string]any, int) {
	if rs == nil {
		return map[string]any{"error": "not a replica"}, http.StatusConflict
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.follower == nil {
		return map[string]any{"error": "not a replica"}, http.StatusConflict
	}
	if rs.promoted != nil { // idempotent: repeating the ack is harmless
		return map[string]any{"status": "primary", "epoch": rs.follower.Epoch(),
			"seq": rs.promoted.NextSeq()}, http.StatusOK
	}
	mon, err := rs.follower.Promote()
	if err != nil {
		return map[string]any{"error": err.Error()}, http.StatusInternalServerError
	}
	rs.promoted = mon
	h.set(mon)
	return map[string]any{"status": "primary", "epoch": rs.follower.Epoch(),
		"seq": mon.NextSeq()}, http.StatusOK
}

// runReplica runs the process as a read-only replica of a primary: the
// durable monitor is recovered from -wal, then kept in sync from the
// primary's replication listener; /skyline, /metrics and /healthz serve the
// replica's lock-free view while POST /push answers 403. POST /promote (or
// `pskyline -promote URL`) seals the stream and flips the node writable;
// the process then keeps serving as a primary until SIGINT/SIGTERM.
func runReplica(cfg config, errw io.Writer) error {
	if cfg.walDir == "" {
		return fmt.Errorf("-replica-of requires -wal: the WAL is the replication log")
	}
	if cfg.httpAddr == "" {
		return fmt.Errorf("-replica-of requires -http: replicas are queried over HTTP")
	}
	if cfg.replListen != "" {
		return fmt.Errorf("-replica-of and -replicate-listen are mutually exclusive")
	}
	if cfg.streams != "" || cfg.ckpt != "" {
		return fmt.Errorf("-replica-of composes only with -wal and -http")
	}
	if cfg.shards > 1 {
		return fmt.Errorf("-replica-of replicates a single-engine stream: -shards must be 1")
	}
	opt, err := cfg.options()
	if err != nil {
		return err
	}
	prog := &pskyline.RecoveryProgress{}
	opt.Durability.Progress = prog

	// The HTTP server comes up before the local recovery so probes see 503
	// "recovering" (with replay progress) instead of connection refused.
	h := newMonitorHandle(nil)
	h.progress = prog
	rs := &replState{}
	srv, err := startServer(cfg.httpAddr, newServeMux(h, rs), errw)
	if err != nil {
		return err
	}
	defer srv.Close()

	inj, err := parseReplFault(cfg)
	if err != nil {
		return err
	}
	f, err := repl.StartFollower(opt, repl.FollowerOptions{
		Addr:  cfg.replicaOf,
		Fault: inj,
		// Checkpoint catch-up rebuilds the monitor; swap the serving handle.
		OnMonitor: func(m *pskyline.Monitor) { h.set(m) },
	})
	if err != nil {
		return err
	}
	if rec := f.Monitor().Recovery(); rec.Recovered {
		fmt.Fprintf(errw, "pskyline: recovered from %s: checkpoint seq %d + %d replayed records in %v\n",
			cfg.walDir, rec.CheckpointSeq, rec.Replayed, rec.Duration.Round(time.Millisecond))
	}
	rs.setFollower(f)
	h.set(f.Monitor())
	fmt.Fprintf(errw, "pskyline: replica of %s at seq %d (epoch %d), serving on %s (interrupt to exit)\n",
		cfg.replicaOf, f.Monitor().NextSeq(), f.Epoch(), cfg.httpAddr)

	awaitStop(cfg.stop)
	shutdownServer(srv, errw)

	rs.mu.Lock()
	promoted := rs.promoted
	rs.mu.Unlock()
	if promoted != nil {
		// The node became a primary: exit like one — drain, checkpoint,
		// close. The follower's Close leaves the transferred monitor alone.
		f.Close()
		promoted.Drain()
		if err := promoted.Checkpoint(); err != nil {
			fmt.Fprintf(errw, "pskyline: checkpoint: %v\n", err)
		} else {
			fmt.Fprintf(errw, "pskyline: checkpoint installed in %s at seq %d\n",
				cfg.walDir, promoted.NextSeq())
		}
		return promoted.Close()
	}
	return f.Close()
}

// runPromote is the -promote client: POST /promote on a replica's HTTP
// address and report the outcome.
func runPromote(target string, out io.Writer) error {
	base := strings.TrimRight(target, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(base+"/promote", "application/json", nil)
	if err != nil {
		return fmt.Errorf("promote %s: %v", target, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote %s: status %d: %s", target, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var ack struct {
		Status string `json:"status"`
		Epoch  uint64 `json:"epoch"`
		Seq    uint64 `json:"seq"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("promote %s: bad response %q: %v", target, body, err)
	}
	fmt.Fprintf(out, "promoted: role=%s epoch=%d seq=%d\n", ack.Status, ack.Epoch, ack.Seq)
	return nil
}
