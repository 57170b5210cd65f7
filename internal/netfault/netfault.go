// Package netfault is a deterministic, seeded fault-injection seam for
// network connections — the transport-layer twin of internal/vfs, sharing
// its schedule language and matcher (internal/fault). A wrapped net.Conn (or a faulted dialer) passes every
// dial, read and write through a schedule of rules that can add latency,
// throttle bandwidth, tear a write mid-frame, reset the connection, or
// blackhole the operation entirely (a partition: the call blocks until the
// schedule heals, the deadline expires, or the connection closes).
//
// Nothing is mocked: the real connection carries whatever bytes the schedule
// lets through, so torn frames and half-delivered batches exercise the same
// CRC and resume logic a real network failure would. Equal seeds give equal
// schedules, which is what makes chaos tests reproducible.
package netfault

import (
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"pskyline/internal/fault"
)

// Op names one connection operation class for fault matching.
type Op int

const (
	OpDial Op = iota
	OpRead
	OpWrite
)

var opNames = [...]string{OpDial: "dial", OpRead: "read", OpWrite: "write"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// ErrKind selects the failure a fired rule injects. The zero value injects
// no error: the rule only delays (latency) or throttles.
type ErrKind int

const (
	// ErrNone: the operation proceeds after any Delay/Rate sleep.
	ErrNone ErrKind = iota
	// ErrReset severs the connection: a write-side reset also closes the
	// underlying conn, so the peer observes the break (and any Partial
	// bytes already flushed — a torn frame).
	ErrReset
	// ErrTimeout fails the operation with a net.Error whose Timeout() is
	// true, without closing the connection.
	ErrTimeout
	// ErrBlackhole is a partition: the operation blocks until the schedule
	// heals (Clear), the connection closes, or its deadline — bounded by
	// Delay when set — expires, and then fails with a timeout.
	ErrBlackhole
)

var errKindNames = map[ErrKind]string{ErrReset: "reset", ErrTimeout: "timeout", ErrBlackhole: "blackhole"}

// Effect is a network rule's own part: what a fired rule does to the
// operation, and how its arming counters are scoped.
type Effect struct {
	// Delay: ErrNone sleeps this long before the operation proceeds
	// (latency); ErrBlackhole bounds the stall — the partition resolves
	// into a timeout after Delay even without a deadline, which makes
	// self-healing partitions schedulable from a static spec.
	Delay time.Duration
	// Rate throttles: the operation sleeps len(p)/Rate seconds (bytes per
	// second) before proceeding. Read/write only.
	Rate int
	// Err is the injected failure; ErrNone makes the rule pure latency or
	// throttle.
	Err ErrKind
	// PerConn scopes the rule's After/Times counters to each wrapped
	// connection, so "the second write of every session" is expressible;
	// the default counts globally across the injector.
	PerConn bool
}

// Rule is one fault in a network schedule (see fault.Rule for the arming
// fields; Partial is the torn-write prefix of a failing write).
type Rule = fault.Rule[Op, Effect]

// grammar is the -repl-fault part of the shared schedule language.
var grammar = fault.Grammar[Op, Effect]{
	Name:  "netfault",
	Ops:   opNames[:],
	Write: OpWrite,
	Field: func(e *Effect, k, v string) error {
		var err error
		switch k {
		case "delay":
			if e.Delay, err = time.ParseDuration(v); err != nil || e.Delay < 0 {
				return fmt.Errorf("bad delay=%q", v)
			}
		case "rate":
			if e.Rate, err = strconv.Atoi(v); err != nil || e.Rate <= 0 {
				return fmt.Errorf("bad rate=%q", v)
			}
		case "err":
			for kind, name := range errKindNames {
				if name == v {
					e.Err = kind
					return nil
				}
			}
			return fmt.Errorf("unknown err=%q (want reset, timeout or blackhole)", v)
		case "per":
			if v != "conn" {
				return fmt.Errorf("bad per=%q (want conn)", v)
			}
			e.PerConn = true
		default:
			return fmt.Errorf("unknown rule field %q", k)
		}
		return nil
	},
	Vet: func(r *Rule) error {
		e := &r.Effect
		switch {
		case e.Delay == 0 && e.Rate == 0 && e.Err == ErrNone:
			return errors.New("rule has no effect (want delay, rate or err)")
		case r.Partial > 0 && e.Err == ErrNone:
			return errors.New("partial requires an err")
		case e.Rate > 0 && r.Op == OpDial:
			return errors.New("rate applies only to read/write")
		}
		return nil
	},
	Render: func(b *strings.Builder, e *Effect) {
		if e.Delay > 0 {
			b.WriteString(":delay=" + e.Delay.String())
		}
		if e.Rate > 0 {
			b.WriteString(":rate=" + strconv.Itoa(e.Rate))
		}
		if e.Err != ErrNone {
			b.WriteString(":err=" + errKindNames[e.Err])
		}
		if e.PerConn {
			b.WriteString(":per=conn")
		}
	},
	Fails: func(e *Effect) bool { return e.Err != ErrNone },
}

// Injector injects faults into connections according to a deterministic,
// seeded schedule of rules. Safe for concurrent use; serialization of the
// schedule also makes it deterministic for single-writer callers.
type Injector struct {
	*fault.Plan[Op, Effect]

	mu     sync.Mutex
	healCh chan struct{} // closed (and replaced) by Clear: wakes blackholes
}

// New returns an injector with an empty schedule. seed drives the
// probabilistic rules; equal seeds give equal schedules.
func New(seed int64) *Injector {
	return &Injector{Plan: fault.New(&grammar, seed), healCh: make(chan struct{})}
}

// Clear drops every rule (the network "heals") and releases any operation
// blocked in a blackhole — it proceeds against the healed schedule.
func (f *Injector) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.Plan.Clear()
	close(f.healCh)
	f.healCh = make(chan struct{})
}

// check records one operation against the schedule and returns the rule
// that fires on it, its Delay extended by the Rate throttle for a payload of
// size bytes. scope carries the per-connection counters (nil for dials).
func (f *Injector) check(op Op, scope *connScope, size int) (Rule, bool) {
	r, ok := f.Fire(op, scope.match)
	if ok && r.Effect.Rate > 0 && size > 0 {
		r.Effect.Delay += time.Duration(float64(size) / float64(r.Effect.Rate) * float64(time.Second))
	}
	return r, ok
}

// heal returns the channel closed by the next Clear.
func (f *Injector) heal() chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.healCh
}

// injected errors ------------------------------------------------------------

// timeoutError satisfies net.Error with Timeout() true, like a deadline.
type timeoutError struct{ op Op }

func (e *timeoutError) Error() string   { return fmt.Sprintf("netfault: injected %s timeout", e.op) }
func (e *timeoutError) Timeout() bool   { return true }
func (e *timeoutError) Temporary() bool { return true }

// ErrInjectedReset marks a connection reset injected by the schedule. Test
// with errors.Is.
var ErrInjectedReset = errors.New("netfault: injected connection reset")

// Conn ----------------------------------------------------------------------

// connScope holds one connection's per-rule counters (Effect.PerConn).
type connScope struct {
	states map[*Rule]*fault.Counts
}

// match arms PerConn rules on this connection's counters. Called by the
// schedule under its mutex; a nil scope (a dial) keeps every rule global.
func (s *connScope) match(r *Rule) (bool, *fault.Counts) {
	if s == nil || !r.Effect.PerConn {
		return true, nil
	}
	if s.states == nil {
		s.states = make(map[*Rule]*fault.Counts)
	}
	c := s.states[r]
	if c == nil {
		c = &fault.Counts{}
		s.states[r] = c
	}
	return true, c
}

// Conn wraps a net.Conn so reads and writes pass through the schedule. It
// tracks the deadlines set on it: a blackholed or delayed operation respects
// them (returning a timeout) even though the underlying syscall never runs.
type Conn struct {
	net.Conn
	f *Injector

	mu    sync.Mutex
	scope connScope
	rdl   time.Time
	wdl   time.Time

	closed    chan struct{}
	closeOnce sync.Once
}

// WrapConn wraps c so its reads and writes pass through the schedule.
func (f *Injector) WrapConn(c net.Conn) net.Conn {
	return &Conn{Conn: c, f: f, closed: make(chan struct{})}
}

func (c *Conn) Close() error {
	c.closeOnce.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl, c.wdl = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdl = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdl = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

func (c *Conn) deadline(op Op) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if op == OpRead {
		return c.rdl
	}
	return c.wdl
}

// sleep pauses for d, truncated at the deadline (then: timeout error) and
// interrupted by Close.
func (c *Conn) sleep(op Op, d time.Duration, deadline time.Time) error {
	timedOut := false
	if !deadline.IsZero() {
		if until := time.Until(deadline); until < d {
			d, timedOut = until, true
		}
	}
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-c.closed:
			return net.ErrClosed
		}
	}
	if timedOut {
		return &timeoutError{op: op}
	}
	return nil
}

// blackhole blocks until the schedule heals (nil: proceed with the real
// operation), the stall bound or deadline expires (timeout), or the
// connection closes.
func (c *Conn) blackhole(op Op, bound time.Duration, deadline time.Time) error {
	healed := c.f.heal()
	var timer <-chan time.Time
	wait := time.Duration(-1) // negative: unbounded
	if !deadline.IsZero() {
		wait = time.Until(deadline)
	}
	if bound > 0 && (wait < 0 || bound < wait) {
		wait = bound
	}
	if wait >= 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-healed:
		return nil
	case <-timer:
		return &timeoutError{op: op}
	case <-c.closed:
		return net.ErrClosed
	}
}

func (c *Conn) Read(p []byte) (int, error) {
	v, ok := c.f.check(OpRead, &c.scope, len(p))
	if ok {
		if err := c.resolve(OpRead, v); err != nil {
			return 0, err
		}
	}
	return c.Conn.Read(p)
}

func (c *Conn) Write(p []byte) (int, error) {
	v, ok := c.f.check(OpWrite, &c.scope, len(p))
	if ok {
		if err := c.resolve(OpWrite, v); err != nil {
			n := 0
			if v.Partial > 0 && v.Partial < len(p) && !errors.Is(err, net.ErrClosed) {
				// Torn write: a prefix of the frame reaches the wire
				// before the failure surfaces.
				n, _ = c.Conn.Write(p[:v.Partial])
			}
			if errors.Is(err, ErrInjectedReset) {
				c.Conn.Close() // the peer observes the break
			}
			return n, err
		}
	}
	return c.Conn.Write(p)
}

// resolve applies a fired rule: sleep for latency/throttle, then block or
// fail per the error kind. A nil return means the real operation proceeds.
func (c *Conn) resolve(op Op, v Rule) error {
	deadline := c.deadline(op)
	switch v.Effect.Err {
	case ErrNone:
		return c.sleep(op, v.Effect.Delay, deadline)
	case ErrBlackhole:
		return c.blackhole(op, v.Effect.Delay, deadline)
	case ErrTimeout:
		return &timeoutError{op: op}
	case ErrReset:
		return fmt.Errorf("netfault: injected %s fault: %w", op, ErrInjectedReset)
	}
	return nil
}

// Dial dials through the schedule: dial rules can delay, time out, reset
// (connection refused-like failure) or blackhole the attempt, and the
// returned connection is wrapped so read/write rules apply to the session.
func (f *Injector) Dial(network, addr string, timeout time.Duration) (net.Conn, error) {
	if v, ok := f.check(OpDial, nil, 0); ok {
		switch v.Effect.Err {
		case ErrReset:
			return nil, fmt.Errorf("netfault: injected dial fault: %w", ErrInjectedReset)
		case ErrTimeout:
			return nil, &timeoutError{op: OpDial}
		case ErrBlackhole:
			wait := timeout
			if v.Effect.Delay > 0 && v.Effect.Delay < wait {
				wait = v.Effect.Delay
			}
			healed := f.heal()
			t := time.NewTimer(wait)
			select {
			case <-healed:
				t.Stop()
			case <-t.C:
				return nil, &timeoutError{op: OpDial}
			}
		default:
			time.Sleep(v.Effect.Delay)
		}
	}
	c, err := net.DialTimeout(network, addr, timeout)
	if err != nil {
		return nil, err
	}
	return f.WrapConn(c), nil
}

// ParseSchedule builds an injector from a compact schedule spec — the
// -repl-fault CLI syntax, in the language fault.Parse describes. The
// network's ops are dial, read and write; its own fields are delay, rate,
// err and per:
//
//	op[:after=N][:times=M][:p=F][:partial=K][:delay=D][:rate=B][:err=reset|timeout|blackhole][:per=conn]
//
// Examples:
//
//	write:after=2:times=-1:err=reset:per=conn   every session's 3rd+ write resets
//	read:p=0.05:times=-1:err=blackhole:delay=2s  5% of reads stall 2s, then time out
//	write:times=1:partial=5:err=reset            the 1st write tears at byte 5
//	dial:delay=150ms:times=-1                    every dial pays 150ms latency
//	write:rate=65536:times=-1                    writes throttled to 64 KiB/s
//
// A rule must have an effect: at least one of delay, rate or err. partial
// requires an err, and rate does not apply to dial.
func ParseSchedule(seed int64, spec string) (*Injector, error) {
	p, err := fault.Parse(&grammar, seed, spec)
	if err != nil {
		return nil, err
	}
	return &Injector{Plan: p, healCh: make(chan struct{})}, nil
}
