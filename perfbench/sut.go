package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pskyline"
	"pskyline/internal/core"
	"pskyline/internal/repl"
)

// system is a built system under test as the closed loop drives it.
type system interface {
	// stage prepares the next write call's payload. It runs outside the
	// timer, so client-side encoding is not charged to the system.
	stage(es []pskyline.Element)
	// write sends the staged payload and returns when the system says it
	// is applied.
	write() error
	// read performs one reader operation.
	read() error
	// check compares the system's final answer with ref, an engine fed
	// exactly the elements the system was fed.
	check(ref *core.Engine) error
	close() error
}

// sink keeps read results reachable so no read is optimized away.
var sink []pskyline.SkyPoint

// errLeftSemiSync marks a write that returned while the primary was not
// enforcing semi-sync: it was not timed as a semi-sync commit.
var errLeftSemiSync = errors.New("replication left semisync during the write")

func monitorOptions(w workload) pskyline.Options {
	return pskyline.Options{Dims: w.dims, Window: w.window, Thresholds: w.qs}
}

// readView performs one reader operation against a published view.
func readView(v *pskyline.View, w workload) error {
	if w.mixRead {
		if _, err := v.Query(0.6); err != nil {
			return err
		}
		if _, err := v.TopK(10, w.minQ()); err != nil {
			return err
		}
	}
	sink = v.Skyline()
	return nil
}

// monSys is an in-memory Monitor (point-writes, batch-read-mix).
type monSys struct {
	w      workload
	m      *pskyline.Monitor
	staged []pskyline.Element
}

func buildMonitor(w workload, in *inputs) (*monSys, error) {
	m, err := pskyline.NewMonitor(monitorOptions(w))
	if err != nil {
		return nil, err
	}
	if err := in.fill(m.PushBatch); err != nil {
		m.Close()
		return nil, err
	}
	return &monSys{w: w, m: m}, nil
}

func (s *monSys) stage(es []pskyline.Element) { s.staged = es }

func (s *monSys) write() error {
	if s.w.batch == 1 {
		_, err := s.m.Push(s.staged[0])
		return err
	}
	_, err := s.m.PushBatch(s.staged)
	return err
}

func (s *monSys) read() error { return readView(s.m.View(), s.w) }

func (s *monSys) check(ref *core.Engine) error { return compareView("monitor", s.m.View(), ref) }

func (s *monSys) close() error { return s.m.Close() }

// semiSys is a durable primary replicating to one in-process follower
// over loopback with SemiSyncK=1 and otherwise default options.
type semiSys struct {
	w        workload
	dir      string
	prim     *pskyline.Monitor
	srv      *repl.Server
	fol      *repl.Follower
	degrades uint64
	staged   []pskyline.Element
}

// buildSemiSync prefills the primary, then attaches the follower and
// waits until it has caught up and the primary enforces semi-sync. The
// steps run in sequence: overlapping them made set-up time erratic.
func buildSemiSync(w workload, in *inputs, workdir string) (s *semiSys, err error) {
	dir, err := os.MkdirTemp(workdir, "semisync-")
	if err != nil {
		return nil, err
	}
	s = &semiSys{w: w, dir: dir}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	opt := func(sub string) pskyline.Options {
		o := monitorOptions(w)
		o.Durability = pskyline.Durability{Dir: filepath.Join(dir, sub)}
		return o
	}
	if s.prim, err = pskyline.Open(opt("primary")); err != nil {
		return nil, err
	}
	if err = in.fill(s.prim.PushBatch); err != nil {
		return nil, err
	}
	if s.srv, err = repl.NewServer(s.prim, "127.0.0.1:0", repl.ServerOptions{SemiSyncK: 1}); err != nil {
		return nil, err
	}
	if s.fol, err = repl.StartFollower(opt("follower"), repl.FollowerOptions{Addr: s.srv.Addr().String()}); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(90 * time.Second)
	for {
		st := s.srv.Status()
		if st.SyncState == repl.SyncSemiSync.String() && s.fol.Monitor().NextSeq() == s.prim.NextSeq() {
			s.degrades = st.Degrades
			return s, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("follower never reached semisync: %+v", st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *semiSys) stage(es []pskyline.Element) { s.staged = es }

func (s *semiSys) write() error {
	_, err := s.prim.PushBatch(s.staged)
	return err
}

// afterWrite is the validity guard, run outside the timer: a write that
// ended with the primary outside semisync counts as failed.
func (s *semiSys) afterWrite() error {
	st := s.srv.Status()
	if st.SyncState != repl.SyncSemiSync.String() || st.Degrades != s.degrades {
		s.degrades = st.Degrades
		return errLeftSemiSync
	}
	return nil
}

func (s *semiSys) read() error { return readView(s.fol.Monitor().View(), s.w) }

// check waits for the follower to reach the primary's position, then
// compares the primary with ref and the follower with the primary.
func (s *semiSys) check(ref *core.Engine) error {
	want := s.prim.NextSeq()
	deadline := time.Now().Add(30 * time.Second)
	for s.fol.Monitor().NextSeq() != want {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower stuck at seq %d, primary at %d", s.fol.Monitor().NextSeq(), want)
		}
		time.Sleep(time.Millisecond)
	}
	if err := compareView("primary", s.prim.View(), ref); err != nil {
		return err
	}
	return compareViews(s.fol.Monitor().View(), s.prim.View())
}

func (s *semiSys) close() error {
	var errs []error
	if s.fol != nil {
		errs = append(errs, s.fol.Close())
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.prim != nil {
		errs = append(errs, s.prim.Close())
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}
