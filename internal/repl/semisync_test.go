package repl

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"pskyline"
	"pskyline/internal/netfault"
)

// waitSyncState polls the primary until its replication health state
// machine reaches want.
func waitSyncState(t *testing.T, srv *Server, want string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Status()
		if st.SyncState == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("sync state %q (reason %q, followers %d), want %q",
				st.SyncState, st.SyncReason, len(st.Followers), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// semiServerOptions is fastServerOptions plus semi-sync K=1 with short,
// test-friendly deadlines.
func semiServerOptions(ackWait, escalate time.Duration) ServerOptions {
	o := fastServerOptions()
	o.SemiSyncK = 1
	o.AckWait = ackWait
	o.EscalateAfter = escalate
	o.CatchupLag = 4
	return o
}

// TestSemiSyncMatchesAsyncByteIdentical is differential proof (a): a
// semi-sync primary and its follower are gob-byte-identical to an async
// pair fed the same stream — the quorum wait changes when Push returns,
// never what state the bytes land in.
func TestSemiSyncMatchesAsyncByteIdentical(t *testing.T) {
	type node struct {
		mon *pskyline.Monitor
		srv *Server
		f   *Follower
	}
	mk := func(opt ServerOptions, seed int64) node {
		mon, err := pskyline.NewMonitor(testOptions(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(mon, "127.0.0.1:0", opt)
		if err != nil {
			t.Fatal(err)
		}
		f, err := StartFollower(testOptions(t.TempDir()), fastFollowerOptions(srv.Addr().String()))
		if err != nil {
			t.Fatal(err)
		}
		return node{mon, srv, f}
	}
	semi := mk(semiServerOptions(2*time.Second, 0), 1)
	async := mk(fastServerOptions(), 1)
	defer func() {
		for _, n := range []node{semi, async} {
			n.f.Close()
			n.srv.Close()
			n.mon.Close()
		}
	}()

	// Warm both pairs, then wait for the semi-sync primary to upgrade:
	// from here on its pushes block on the follower's acks.
	rngA, rngB := rand.New(rand.NewSource(42)), rand.New(rand.NewSource(42))
	pushN(t, semi.mon, rngA, 20)
	pushN(t, async.mon, rngB, 20)
	waitApplied(t, semi.f, semi.mon.NextSeq())
	waitSyncState(t, semi.srv, "semisync")

	pushN(t, semi.mon, rngA, 180)
	pushN(t, async.mon, rngB, 180)
	if st := semi.srv.Status(); st.Waits == 0 {
		t.Fatalf("semi-sync primary never waited on the quorum: %+v", st)
	}
	waitApplied(t, semi.f, semi.mon.NextSeq())
	waitApplied(t, async.f, async.mon.NextSeq())

	pBytes := snapshotBytes(t, semi.mon)
	for name, m := range map[string]*pskyline.Monitor{
		"async primary":    async.mon,
		"semisync replica": semi.f.Monitor(),
		"async replica":    async.f.Monitor(),
	} {
		if !bytes.Equal(pBytes, snapshotBytes(t, m)) {
			t.Fatalf("%s state differs from semi-sync primary at seq %d", name, semi.mon.NextSeq())
		}
	}
}

// TestSemiSyncDegradeHealUpgradeCycle is differential proof (b) and walks
// every edge of the state machine under a seeded partition: semisync →
// degraded within AckWait when a blackhole swallows the stream, degraded →
// async once degradation is sustained, ingestion at full speed throughout,
// and async → semisync after the partition heals.
func TestSemiSyncDegradeHealUpgradeCycle(t *testing.T) {
	inj := netfault.New(5)
	opt := semiServerOptions(100*time.Millisecond, 300*time.Millisecond)
	opt.Fault = inj
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, err := NewServer(primary, "127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f, err := StartFollower(testOptions(t.TempDir()), fastFollowerOptions(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rng := rand.New(rand.NewSource(7))
	pushN(t, primary, rng, 20)
	waitApplied(t, f, primary.NextSeq())
	waitSyncState(t, srv, "semisync")

	// Partition: every server->follower frame disappears into the void.
	inj.Inject(netfault.Rule{Op: netfault.OpWrite, Times: -1, Effect: netfault.Effect{Err: netfault.ErrBlackhole}})
	start := time.Now()
	pushN(t, primary, rng, 1)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("push under partition took %v, want ~AckWait (100ms)", d)
	}
	waitSyncState(t, srv, "degraded")

	// Degraded means no blocking: the partitioned primary ingests at full
	// speed.
	start = time.Now()
	pushN(t, primary, rng, 200)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("200 degraded pushes took %v, want unblocked", d)
	}

	// Sustained degradation escalates to async (EscalateAfter = 300ms).
	time.Sleep(350 * time.Millisecond)
	pushN(t, primary, rng, 1) // poke the time-based transition
	waitSyncState(t, srv, "async")

	// Heal. The follower catches back up, acks flow, and the stream
	// upgrades to semi-sync on its own.
	inj.Clear()
	waitSyncState(t, srv, "semisync")
	waitApplied(t, f, primary.NextSeq())

	st := srv.Status()
	if st.Degrades < 2 || st.Upgrades < 2 || st.WaitTimeouts < 1 {
		t.Fatalf("transition counters off: %+v", st)
	}
	if st.QuorumAcked == 0 {
		t.Fatalf("quorum watermark never advanced: %+v", st)
	}
	var prom strings.Builder
	if err := srv.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{
		"pskyline_repl_sync_state 2",
		"pskyline_repl_semisync_k 1",
		"pskyline_repl_semisync_degrades_total",
		"pskyline_repl_semisync_upgrades_total",
		"pskyline_repl_quorum_acked_seq",
	} {
		if !strings.Contains(prom.String(), series) {
			t.Fatalf("prometheus output missing %q:\n%s", series, prom.String())
		}
	}
}

// TestSemiSyncShortfallOnFollowerLoss: losing the last quorum member drops
// the stream straight to async — there is nothing to wait for — and counts
// the shortfall.
func TestSemiSyncShortfallOnFollowerLoss(t *testing.T) {
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, err := NewServer(primary, "127.0.0.1:0", semiServerOptions(2*time.Second, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f, err := StartFollower(testOptions(t.TempDir()), fastFollowerOptions(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(3))
	pushN(t, primary, rng, 10)
	waitApplied(t, f, primary.NextSeq())
	waitSyncState(t, srv, "semisync")

	f.Close()
	waitSyncState(t, srv, "async")
	if st := srv.Status(); st.Shortfalls == 0 {
		t.Fatalf("shortfall not counted: %+v", st)
	}
	// And pushes are unblocked.
	start := time.Now()
	pushN(t, primary, rng, 10)
	if d := time.Since(start); d > time.Second {
		t.Fatalf("pushes after shortfall took %v, want unblocked", d)
	}
}

// TestSemiSyncCloseReleasesBlockedPush is the satellite-4 guarantee: Close
// during a blocked quorum wait releases the waiter with the sticky
// ErrServerClosed — no leak, no deadlock — and the monitor keeps working.
func TestSemiSyncCloseReleasesBlockedPush(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := netfault.New(9)
	opt := semiServerOptions(30*time.Second, 0) // AckWait can't release the waiter
	opt.Fault = inj
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(primary, "127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	f, err := StartFollower(testOptions(t.TempDir()), fastFollowerOptions(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(11))
	pushN(t, primary, rng, 10)
	waitApplied(t, f, primary.NextSeq())
	waitSyncState(t, srv, "semisync")

	// Partition the outbound stream: the next push's records frame never
	// reaches the follower, so no ack comes back and the push blocks on
	// the quorum. (Blackholing server reads would be racy: an ack read
	// already in flight when the rule lands still returns.)
	inj.Inject(netfault.Rule{Op: netfault.OpWrite, Times: -1, Effect: netfault.Effect{Err: netfault.ErrBlackhole}})
	pushed := make(chan error, 1)
	go func() {
		_, err := primary.Push(pskyline.Element{Point: []float64{0.5, 0.5}, Prob: 0.5, TS: 100})
		pushed <- err
	}()
	select {
	case err := <-pushed:
		t.Fatalf("push returned before close: %v", err)
	case <-time.After(150 * time.Millisecond):
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	select {
	case err := <-pushed:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("blocked push resolved to %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push still blocked after server close")
	}
	if err := <-done; err != nil {
		t.Fatalf("server close: %v", err)
	}
	// The waiter is uninstalled: pushes succeed immediately again.
	if _, err := primary.Push(pskyline.Element{Point: []float64{0.4, 0.4}, Prob: 0.5, TS: 101}); err != nil {
		t.Fatalf("push after close: %v", err)
	}

	f.Close()
	primary.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now, %d at start", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSemiSyncKillLossBound is differential proof (c): after a semi-sync
// primary dies mid-stream under a flaky (seeded reset-injecting) network,
// the promoted follower holds every quorum-acked record — loss is bounded
// to the un-acked suffix — and its state is byte-identical to an oracle fed
// the same prefix.
func TestSemiSyncKillLossBound(t *testing.T) {
	inj := netfault.New(13)
	// A flaky link: ~20% of server writes reset the connection, forever.
	inj.Inject(netfault.Rule{Op: netfault.OpWrite, Times: -1, Prob: 0.2, Effect: netfault.Effect{Err: netfault.ErrReset}})
	opt := semiServerOptions(50*time.Millisecond, 200*time.Millisecond)
	opt.Fault = inj
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(primary, "127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	fo := fastFollowerOptions(srv.Addr().String())
	fo.RetryBase = 5 * time.Millisecond
	f, err := StartFollower(testOptions(t.TempDir()), fo)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(17))
	elems := make([]pskyline.Element, 300)
	for i := range elems {
		elems[i] = pskyline.Element{
			Point: []float64{rng.Float64(), rng.Float64()},
			Prob:  0.05 + 0.95*rng.Float64(),
			TS:    int64(i),
		}
	}
	for _, e := range elems {
		if _, err := primary.Push(e); err != nil {
			t.Fatalf("push: %v", err)
		}
	}

	// Hard stop, mid-churn: no drain, no waiting for the follower.
	acked := srv.Status().QuorumAcked
	srv.Close()
	primary.Close()

	promoted, err := f.Promote()
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	defer promoted.Close()
	got := promoted.NextSeq()
	if got < acked {
		t.Fatalf("acked record lost: promoted follower at seq %d < quorum-acked watermark %d", got, acked)
	}
	if got > uint64(len(elems)) {
		t.Fatalf("promoted follower at seq %d beyond the %d pushed", got, len(elems))
	}

	// Byte-identity against an oracle fed the surviving prefix.
	oracle, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer oracle.Close()
	for _, e := range elems[:got] {
		if _, err := oracle.Push(e); err != nil {
			t.Fatalf("oracle push: %v", err)
		}
	}
	if !bytes.Equal(snapshotBytes(t, promoted), snapshotBytes(t, oracle)) {
		t.Fatalf("promoted state differs from oracle at seq %d", got)
	}
}

// TestFollowerTableConvergesUnderChurn is the satellite-1 audit: flapping a
// follower 10× — including flaps where the dying connection's writer is
// wedged in a blackholed write — must leave Status() reporting exactly the
// one live entry, promptly, not after AckTimeout/WriteTimeout.
func TestFollowerTableConvergesUnderChurn(t *testing.T) {
	inj := netfault.New(21)
	opt := fastServerOptions() // default (10s) AckTimeout: convergence must not lean on it
	opt.Fault = inj
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, err := NewServer(primary, "127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	f, err := StartFollower(testOptions(t.TempDir()), fastFollowerOptions(srv.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rng := rand.New(rand.NewSource(23))
	pushN(t, primary, rng, 10)
	waitApplied(t, f, primary.NextSeq())

	for flap := 0; flap < 10; flap++ {
		if flap%2 == 1 {
			// Wedge the old connection's writer: its next frame blocks in
			// a blackhole until the server write deadline (10s), so only
			// prompt dead-marking — not serveConn exit — can keep the
			// ghost out of Status.
			inj.Inject(netfault.Rule{Op: netfault.OpWrite, Times: 1, Effect: netfault.Effect{Err: netfault.ErrBlackhole}})
		}
		f.DropConnection()
		pushN(t, primary, rng, 5)
		waitApplied(t, f, primary.NextSeq())
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := len(srv.Status().Followers)
			if n == 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("flap %d: follower table has %d entries, want 1", flap, n)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	inj.Clear() // release wedged writers so Close is prompt
}

// TestFollowerBackoffCountsPostHandshakeFailures is the satellite-2 fix: a
// primary that accepts the handshake and then kills every session must see
// the follower back off exponentially, not hammer at RetryBase.
func TestFollowerBackoffCountsPostHandshakeFailures(t *testing.T) {
	inj := netfault.New(31)
	// Per-connection: the welcome (write #1) succeeds, the first streamed
	// frame (write #2) resets — every session fails right after handshake.
	inj.Inject(netfault.Rule{Op: netfault.OpWrite, After: 1, Times: -1, Effect: netfault.Effect{Err: netfault.ErrReset, PerConn: true}})
	opt := fastServerOptions()
	opt.Fault = inj
	primary, err := pskyline.NewMonitor(testOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	srv, err := NewServer(primary, "127.0.0.1:0", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rng := rand.New(rand.NewSource(37))
	pushN(t, primary, rng, 50) // a backlog so the post-welcome write is immediate

	fo := fastFollowerOptions(srv.Addr().String())
	fo.RetryBase = 5 * time.Millisecond
	fo.RetryMax = 400 * time.Millisecond
	f, err := StartFollower(testOptions(t.TempDir()), fo)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	time.Sleep(1200 * time.Millisecond)
	got := f.Info().Reconnects
	// With backoff counting these failures the delay ladder 5→10→…→400ms
	// allows ~9 sessions in 1.2s; resetting to RetryBase every time would
	// allow well over a hundred.
	if got < 3 {
		t.Fatalf("only %d reconnect attempts — sessions are not failing as arranged", got)
	}
	if got > 40 {
		t.Fatalf("%d reconnects in 1.2s: post-handshake failures are not counting toward backoff", got)
	}
}
