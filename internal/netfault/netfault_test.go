package netfault

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// pair returns a wrapped client conn dialed into an in-process TCP server
// and the server-side conn, plus a cleanup.
func pair(t *testing.T, f *Injector) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		ch <- res{c, err}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { raw.Close(); r.c.Close() })
	return f.WrapConn(raw), r.c
}

func TestPassThrough(t *testing.T) {
	f := New(1)
	c, s := pair(t, f)
	go s.Write([]byte("hello"))
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("got %q", buf)
	}
	if f.Count(OpRead) == 0 {
		t.Fatal("read not counted")
	}
	if f.ErrorsTotal() != 0 {
		t.Fatalf("unexpected injected errors: %d", f.ErrorsTotal())
	}
}

func TestInjectedReset(t *testing.T) {
	f := New(1)
	f.Inject(Rule{Op: OpWrite, Effect: Effect{Err: ErrReset}})
	c, _ := pair(t, f)
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want injected reset, got %v", err)
	}
	// The underlying conn is closed: the next write fails natively.
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write after reset succeeded")
	}
	if f.Errors(OpWrite) != 1 {
		t.Fatalf("Errors(write) = %d", f.Errors(OpWrite))
	}
}

func TestTornWrite(t *testing.T) {
	f := New(1)
	f.Inject(Rule{Op: OpWrite, Partial: 3, Effect: Effect{Err: ErrReset}})
	c, s := pair(t, f)
	n, err := c.Write([]byte("abcdef"))
	if !errors.Is(err, ErrInjectedReset) || n != 3 {
		t.Fatalf("want torn write of 3, got n=%d err=%v", n, err)
	}
	buf := make([]byte, 3)
	if _, err := io.ReadFull(s, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "abc" {
		t.Fatalf("peer saw %q", buf)
	}
	// The stream then ends: the peer observes the break.
	if _, err := s.Read(buf); err == nil {
		t.Fatal("peer read succeeded after reset")
	}
}

func TestInjectedTimeoutIsNetError(t *testing.T) {
	f := New(1)
	f.Inject(Rule{Op: OpRead, Effect: Effect{Err: ErrTimeout}})
	c, _ := pair(t, f)
	_, err := c.Read(make([]byte, 1))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want net.Error timeout, got %v", err)
	}
}

func TestLatencyDelaysOp(t *testing.T) {
	f := New(1)
	f.Inject(Rule{Op: OpWrite, Effect: Effect{Delay: 50 * time.Millisecond}})
	c, s := pair(t, f)
	go io.Copy(io.Discard, s)
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("write returned in %v, want >= ~50ms", d)
	}
}

func TestLatencyRespectsDeadline(t *testing.T) {
	f := New(1)
	f.Inject(Rule{Op: OpWrite, Effect: Effect{Delay: 10 * time.Second}})
	c, _ := pair(t, f)
	c.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	start := time.Now()
	_, err := c.Write([]byte("x"))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout, got %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline not honored: took %v", d)
	}
}

func TestBlackholeHealReleases(t *testing.T) {
	f := New(1)
	f.Inject(Rule{Op: OpWrite, Times: -1, Effect: Effect{Err: ErrBlackhole}})
	c, s := pair(t, f)
	go io.Copy(io.Discard, s)
	done := make(chan error, 1)
	go func() {
		_, err := c.Write([]byte("x"))
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("blackholed write returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	f.Clear() // heal: the blocked write proceeds against the empty schedule
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("healed write failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("write still blocked after heal")
	}
}

func TestBlackholeBoundedByDelay(t *testing.T) {
	f := New(1)
	f.Inject(Rule{Op: OpWrite, Effect: Effect{Err: ErrBlackhole, Delay: 40 * time.Millisecond}})
	c, _ := pair(t, f)
	start := time.Now()
	_, err := c.Write([]byte("x"))
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("want timeout after bounded blackhole, got %v", err)
	}
	if d := time.Since(start); d < 30*time.Millisecond || d > 2*time.Second {
		t.Fatalf("bounded blackhole took %v, want ~40ms", d)
	}
}

func TestBlackholeCloseReleases(t *testing.T) {
	f := New(1)
	f.Inject(Rule{Op: OpRead, Times: -1, Effect: Effect{Err: ErrBlackhole}})
	c, _ := pair(t, f)
	done := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after close")
	}
}

func TestAfterAndTimes(t *testing.T) {
	f := New(1)
	f.Inject(Rule{Op: OpWrite, After: 1, Times: 2, Effect: Effect{Err: ErrTimeout}})
	c, s := pair(t, f)
	go io.Copy(io.Discard, s)
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write 1 (before arm): %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Write([]byte("x")); err == nil {
			t.Fatalf("write %d should fail", i+2)
		}
	}
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("write 4 (exhausted): %v", err)
	}
}

func TestPerConnScoping(t *testing.T) {
	f := New(1)
	// Global counters would make only one conn see the fault; per-conn
	// counters fire for the 2nd write of EVERY conn.
	f.Inject(Rule{Op: OpWrite, After: 1, Times: -1, Effect: Effect{Err: ErrTimeout, PerConn: true}})
	for i := 0; i < 3; i++ {
		c, s := pair(t, f)
		go io.Copy(io.Discard, s)
		if _, err := c.Write([]byte("x")); err != nil {
			t.Fatalf("conn %d write 1: %v", i, err)
		}
		if _, err := c.Write([]byte("x")); err == nil {
			t.Fatalf("conn %d write 2 should fail", i)
		}
		c.Close()
	}
}

func TestProbDeterministicAcrossSeeds(t *testing.T) {
	run := func(seed int64) []bool {
		f := New(seed)
		f.Inject(Rule{Op: OpWrite, Times: -1, Prob: 0.5, Effect: Effect{Err: ErrTimeout}})
		c, s := pair(t, f)
		defer c.Close()
		go io.Copy(io.Discard, s)
		var outcomes []bool
		for i := 0; i < 32; i++ {
			_, err := c.Write([]byte("x"))
			outcomes = append(outcomes, err != nil)
		}
		return outcomes
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
}

func TestDialFaults(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	defer wg.Wait()
	defer ln.Close()

	f := New(1)
	f.Inject(Rule{Op: OpDial, Effect: Effect{Err: ErrReset}})
	if _, err := f.Dial("tcp", ln.Addr().String(), time.Second); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want injected dial reset, got %v", err)
	}
	// Schedule exhausted: dial succeeds and returns a wrapped conn.
	c, err := f.Dial("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.(*Conn); !ok {
		t.Fatalf("dial returned unwrapped %T", c)
	}
	c.Close()
}

func TestParseSchedule(t *testing.T) {
	spec := "write:after=2:times=-1:err=reset:per=conn; read:p=0.05:times=-1:delay=2s:err=blackhole ; dial:delay=150ms:times=3; write:times=1:partial=5:err=timeout; write:rate=65536:times=-1"
	f, err := ParseSchedule(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	rules := f.Rules()
	n := len(rules)
	r0 := rules[0]
	if n != 5 {
		t.Fatalf("rules = %d, want 5", n)
	}
	if r0.Op != OpWrite || r0.After != 2 || r0.Times != -1 || r0.Effect.Err != ErrReset || !r0.Effect.PerConn {
		t.Fatalf("rule 0 parsed wrong: %+v", r0)
	}
	// Canonical re-render reparses to itself.
	out := f.Schedule()
	f2, err := ParseSchedule(3, out)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", out, err)
	}
	if got := f2.Schedule(); got != out {
		t.Fatalf("render not canonical: %q vs %q", got, out)
	}
}

func TestParseScheduleRejects(t *testing.T) {
	bad := []string{
		"fsync:err=reset",                 // unknown op
		"write",                           // no effect
		"write:bogus",                     // field without =
		"write:after=x:err=reset",         // bad int
		"write:times=-2:err=reset",        // times < -1
		"write:p=1.5:err=reset",           // p out of range
		"write:delay=fast",                // bad duration
		"write:rate=0:times=1",            // rate must be positive
		"write:err=eio",                   // unknown err kind (vfs spelling)
		"read:partial=4:err=reset",        // partial requires write
		"write:partial=4",                 // partial requires an err
		"dial:rate=100",                   // rate on dial
		"write:per=sock:err=reset",        // bad per scope
		"write:whatever=1:err=reset",      // unknown field
		"::::",                            // garbage
		"write:err=reset;;read:err=bogus", // second rule bad
	}
	for _, spec := range bad {
		if _, err := ParseSchedule(1, spec); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", spec)
		}
	}
	// Empty schedule and blank segments are fine.
	for _, spec := range []string{"", " ; ", "write:err=reset; ; read:err=timeout"} {
		if _, err := ParseSchedule(1, spec); err != nil {
			t.Errorf("ParseSchedule(%q): %v", spec, err)
		}
	}
}

// FuzzNetfaultSchedule mirrors FuzzParseStreamSpec and the vfs ParseSchedule
// tests: any accepted spec must re-render canonically (render → parse →
// render is a fixed point), and malformed input must be rejected, never
// panic.
func FuzzNetfaultSchedule(f *testing.F) {
	f.Add("write:after=2:times=-1:err=reset:per=conn")
	f.Add("read:p=0.05:times=-1:delay=2s:err=blackhole")
	f.Add("dial:delay=150ms:times=3; write:times=1:partial=5:err=timeout")
	f.Add("write:rate=65536:times=-1")
	f.Add("write:err=reset; read:err=timeout; dial:err=blackhole")
	f.Add("::::")
	f.Add("write:p=0.999999:times=-1:err=reset")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		inj, err := ParseSchedule(1, spec)
		if err != nil {
			return
		}
		out := inj.Schedule()
		inj2, err := ParseSchedule(1, out)
		if err != nil {
			t.Fatalf("re-render %q of accepted %q rejected: %v", out, spec, err)
		}
		if got := inj2.Schedule(); got != out {
			t.Fatalf("render not a fixed point: %q -> %q -> %q", spec, out, got)
		}
		for _, r := range inj.Rules() {
			if r.Effect.Delay == 0 && r.Effect.Rate == 0 && r.Effect.Err == ErrNone {
				t.Fatalf("accepted no-effect rule %+v from %q", r, spec)
			}
			if r.Times < -1 || r.After < 0 || r.Prob < 0 || r.Prob > 1 {
				t.Fatalf("accepted out-of-range rule %+v from %q", r, spec)
			}
		}
	})
}
