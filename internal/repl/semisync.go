package repl

import (
	"errors"
	"time"
)

// Semi-sync replication: with ServerOptions.SemiSyncK > 0 the primary's
// Push/PushBatch block (via the Monitor's commit waiter, installed by
// NewServer) until K followers have acked the pushed sequence, bounded by
// AckWait. The guarantee is deadline-based, not absolute: when the quorum
// cannot keep up the stream *degrades* to async rather than stalling
// ingestion, and upgrades back automatically once K followers are within
// CatchupLag of the committed watermark. The state machine mirrors the WAL's
// healthy → retrying → degraded machine (internal/wal/health.go):
//
//	           ack timeout                EscalateAfter sustained
//	semisync ──────────────▶ degraded ──────────────────────────▶ async
//	    ▲  ▲                     │                                  │
//	    │  └─────────────────────┘        K followers within        │
//	    └─────────────────────────────────── CatchupLag ────────────┘
//
// plus a direct semisync → async edge on follower shortfall (fewer than K
// live followers — there is no quorum to wait for). Every transition is
// counted and surfaced through Status, /healthz and Prometheus.

// SyncState is the replication health state. Only SyncSemiSync blocks
// pushes; the other states exist so operators can see *why* the guarantee
// is currently not being enforced.
type SyncState int32

const (
	// SyncAsync: no quorum is enforced — SemiSyncK is zero, fewer than K
	// followers are connected, or degradation escalated. A primary with
	// SemiSyncK > 0 starts here and upgrades once K followers catch up.
	SyncAsync SyncState = iota
	// SyncDegraded: a quorum wait recently timed out; pushes no longer
	// block while the followers recover. Escalates to SyncAsync after
	// EscalateAfter without recovery.
	SyncDegraded
	// SyncSemiSync: the quorum is healthy and pushes block on K acks.
	SyncSemiSync
)

var syncStateNames = [...]string{SyncAsync: "async", SyncDegraded: "degraded", SyncSemiSync: "semisync"}

func (s SyncState) String() string {
	if int(s) < len(syncStateNames) {
		return syncStateNames[s]
	}
	return "state?"
}

// ErrServerClosed is the sticky error a blocked quorum wait resolves to when
// the replication server shuts down underneath it. The push it aborts has
// been applied and is locally durable; only the semi-sync guarantee went
// unmet.
var ErrServerClosed = errors.New("repl: server closed during semi-sync commit wait")

// syncWaiter is one push blocked on the quorum watermark.
type syncWaiter struct {
	seq  uint64 // engine position the quorum must reach (NextSeq after the push)
	ch   chan struct{}
	err  error // valid after ch closes
	done bool  // set (under s.mu) when satisfied or released
}

// syncState reports the current replication health state (lock-free).
func (s *Server) syncState() SyncState { return SyncState(s.syncA.Load()) }

// setSyncLocked moves the state machine, counting the transition and
// recording why. Callers hold s.mu.
func (s *Server) setSyncLocked(to SyncState, reason string) {
	from := SyncState(s.syncA.Load())
	if from == to {
		return
	}
	s.syncA.Store(int32(to))
	s.syncReason = reason
	if to > from {
		s.semUpgrades++
	} else {
		s.semDegrades++
	}
	if to == SyncDegraded {
		s.degradedAt = time.Now()
	}
	if from == SyncSemiSync {
		// The guarantee is suspended: release blocked pushes now rather
		// than letting each ride out its own AckWait timer. Their records
		// are applied and locally durable, so they resolve to success.
		s.releaseWaitersLocked(nil)
	}
}

// liveFollowersLocked counts followers that completed the handshake and
// whose connection has not died. Callers hold s.mu.
func (s *Server) liveFollowersLocked() int {
	n := 0
	for _, st := range s.conns {
		if st.ready && !st.dead {
			n++
		}
	}
	return n
}

// ackProgressLocked runs after every follower ack (and on follower loss):
// it recomputes the quorum watermark — the K-th highest applied sequence
// among live followers — advances the WAL's acked watermark, releases
// satisfied waiters, and upgrades the state machine when K followers are
// within CatchupLag of committed. Callers hold s.mu.
func (s *Server) ackProgressLocked() {
	k := s.opt.SemiSyncK
	if k <= 0 {
		return
	}
	committed := s.log.CommittedSeq()
	caughtUp := 0
	applied := s.appliedScratch[:0]
	for _, st := range s.conns {
		if !st.ready || st.dead {
			continue
		}
		applied = append(applied, st.applied)
		if st.applied >= committed || committed-st.applied <= s.opt.CatchupLag {
			caughtUp++
		}
	}
	s.appliedScratch = applied
	if len(applied) >= k {
		// The quorum watermark is the K-th highest applied sequence.
		// K is operationally tiny, so a partial selection sort suffices.
		for i := 0; i < k; i++ {
			maxI := i
			for j := i + 1; j < len(applied); j++ {
				if applied[j] > applied[maxI] {
					maxI = j
				}
			}
			applied[i], applied[maxI] = applied[maxI], applied[i]
		}
		if q := applied[k-1]; q > s.quorumSeq {
			s.quorumSeq = q
			s.wakeWaitersLocked()
		}
	}
	if s.syncState() != SyncSemiSync && caughtUp >= k {
		s.setSyncLocked(SyncSemiSync, "quorum caught up")
	}
}

// wakeWaitersLocked releases every waiter at or below the quorum watermark.
// Callers hold s.mu.
func (s *Server) wakeWaitersLocked() {
	kept := s.waiters[:0]
	for _, w := range s.waiters {
		if w.seq <= s.quorumSeq {
			w.done = true
			close(w.ch)
			continue
		}
		kept = append(kept, w)
	}
	for i := len(kept); i < len(s.waiters); i++ {
		s.waiters[i] = nil
	}
	s.waiters = kept
}

// releaseWaitersLocked aborts every blocked waiter with err (server
// shutdown). Callers hold s.mu.
func (s *Server) releaseWaitersLocked(err error) {
	for i, w := range s.waiters {
		w.err = err
		w.done = true
		close(w.ch)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// removeWaiterLocked unregisters a timed-out waiter. Callers hold s.mu.
func (s *Server) removeWaiterLocked(w *syncWaiter) {
	for i, x := range s.waiters {
		if x == w {
			last := len(s.waiters) - 1
			s.waiters[i] = s.waiters[last]
			s.waiters[last] = nil
			s.waiters = s.waiters[:last]
			return
		}
	}
}

// pokeLocked advances time-based transitions: sustained degradation
// escalates to async. Callers hold s.mu.
func (s *Server) pokeLocked(now time.Time) {
	if s.syncState() == SyncDegraded && s.opt.EscalateAfter > 0 &&
		now.Sub(s.degradedAt) >= s.opt.EscalateAfter {
		s.setSyncLocked(SyncAsync, "degradation sustained past escalate-after")
	}
}

// commitWait is the Monitor's commit waiter (pskyline.CommitWaiter): it
// blocks the calling push until the follower quorum acks seq, the AckWait
// deadline degrades the stream (nil — the push succeeded locally), or the
// server closes (ErrServerClosed). Runs outside the monitor's ingest lock.
func (s *Server) commitWait(seq uint64) error {
	if s.syncState() != SyncSemiSync {
		// Nothing to wait for; still advance time-based transitions so a
		// quiet degraded stream escalates without needing an ack.
		s.mu.Lock()
		s.pokeLocked(time.Now())
		s.mu.Unlock()
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.pokeLocked(time.Now())
	if s.syncState() != SyncSemiSync {
		s.mu.Unlock()
		return nil
	}
	s.semWaits++
	if s.quorumSeq >= seq {
		s.mu.Unlock()
		return nil
	}
	if s.liveFollowersLocked() < s.opt.SemiSyncK {
		// No quorum to wait for: degrade straight to async.
		s.semShortfalls++
		s.setSyncLocked(SyncAsync, "follower shortfall")
		s.mu.Unlock()
		return nil
	}
	w := &syncWaiter{seq: seq, ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()

	t := time.NewTimer(s.opt.AckWait)
	defer t.Stop()
	select {
	case <-w.ch:
		return w.err
	case <-t.C:
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.done {
		// Satisfied (or released) between the timer firing and the lock.
		return w.err
	}
	s.removeWaiterLocked(w)
	s.semWaitTimeouts++
	if s.syncState() == SyncSemiSync {
		s.setSyncLocked(SyncDegraded, "ack wait deadline exceeded")
	}
	return nil
}
