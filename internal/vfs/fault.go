package vfs

import (
	"fmt"
	"io/fs"
	"strings"
	"syscall"

	"pskyline/internal/fault"
)

// Op names one FS operation class for fault matching.
type Op int

const (
	OpWrite Op = iota
	OpSync
	OpCreate // Create and CreateExcl
	OpOpen   // Open and OpenAppend
	OpReadDir
	OpStat
	OpTruncate
	OpRename
	OpRemove
	OpMkdir
	OpSyncDir
)

var opNames = [...]string{
	OpWrite: "write", OpSync: "sync", OpCreate: "create", OpOpen: "open",
	OpReadDir: "readdir", OpStat: "stat", OpTruncate: "truncate",
	OpRename: "rename", OpRemove: "remove", OpMkdir: "mkdir", OpSyncDir: "syncdir",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op?"
}

// Effect is a disk rule's own part: which paths it applies to and the error
// it injects.
type Effect struct {
	Path string // substring match on the operation's path ("" = any)
	Err  error  // error to return (nil = EIO)
}

// Rule is one fault in a disk schedule (see fault.Rule for the arming
// fields).
type Rule = fault.Rule[Op, Effect]

// grammar is the -wal-fault part of the shared schedule language.
var grammar = fault.Grammar[Op, Effect]{
	Name:  "vfs",
	Ops:   opNames[:],
	Write: OpWrite,
	Field: func(e *Effect, k, v string) error {
		switch k {
		case "path":
			e.Path = v
		case "err":
			switch v {
			case "eio":
				e.Err = syscall.EIO
			case "enospc":
				e.Err = syscall.ENOSPC
			default:
				return fmt.Errorf("unknown err=%q (want eio or enospc)", v)
			}
		default:
			return fmt.Errorf("unknown rule field %q", k)
		}
		return nil
	},
	Render: func(b *strings.Builder, e *Effect) {
		if e.Path != "" {
			b.WriteString(":path=" + e.Path)
		}
		switch e.Err {
		case nil:
		case syscall.EIO:
			b.WriteString(":err=eio")
		case syscall.ENOSPC:
			b.WriteString(":err=enospc")
		default:
			b.WriteString(":err=" + e.Err.Error())
		}
	},
	Fails: func(*Effect) bool { return true },
}

// Fault wraps a base FS and injects errors according to a deterministic,
// seeded schedule of rules. All methods are safe for concurrent use; the
// serialization also makes the schedule deterministic for a single-writer
// caller like the WAL. Operation counts are kept per Op for test assertions.
type Fault struct {
	*fault.Plan[Op, Effect]
	base FS
}

// NewFault returns a fault-injecting FS over base. seed drives the
// probabilistic rules; equal seeds give equal schedules.
func NewFault(base FS, seed int64) *Fault {
	return &Fault{Plan: fault.New(&grammar, seed), base: base}
}

// check records one operation and returns the rule error to inject, the
// partial-write byte count (writes only), and whether a fault fires.
func (f *Fault) check(op Op, path string) (error, int, bool) {
	r, ok := f.Fire(op, func(r *Rule) (bool, *fault.Counts) {
		return strings.Contains(path, r.Effect.Path), nil
	})
	if !ok {
		return nil, 0, false
	}
	err := r.Effect.Err
	if err == nil {
		err = syscall.EIO
	}
	return fmt.Errorf("vfs: injected %s fault on %s: %w", op, path, err), r.Partial, true
}

// faultFile wraps a base File so writes and fsyncs pass through the
// schedule. The path is kept for matching.
type faultFile struct {
	File
	f    *Fault
	path string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if err, partial, ok := ff.f.check(OpWrite, ff.path); ok {
		n := 0
		if partial > 0 && partial < len(p) {
			// Torn write: part of the payload reaches the file before the
			// error surfaces, exactly like a short write at byte k.
			n, _ = ff.File.Write(p[:partial])
		}
		return n, err
	}
	return ff.File.Write(p)
}

func (ff *faultFile) Sync() error {
	if err, _, ok := ff.f.check(OpSync, ff.path); ok {
		return err
	}
	return ff.File.Sync()
}

func (f *Fault) wrap(file File, err error, path string) (File, error) {
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, f: f, path: path}, nil
}

func (f *Fault) Create(name string) (File, error) {
	if err, _, ok := f.check(OpCreate, name); ok {
		return nil, err
	}
	file, err := f.base.Create(name)
	return f.wrap(file, err, name)
}

func (f *Fault) CreateExcl(name string) (File, error) {
	if err, _, ok := f.check(OpCreate, name); ok {
		return nil, err
	}
	file, err := f.base.CreateExcl(name)
	return f.wrap(file, err, name)
}

func (f *Fault) OpenAppend(name string) (File, error) {
	if err, _, ok := f.check(OpOpen, name); ok {
		return nil, err
	}
	file, err := f.base.OpenAppend(name)
	return f.wrap(file, err, name)
}

func (f *Fault) Open(name string) (File, error) {
	if err, _, ok := f.check(OpOpen, name); ok {
		return nil, err
	}
	file, err := f.base.Open(name)
	return f.wrap(file, err, name)
}

func (f *Fault) ReadDir(name string) ([]fs.DirEntry, error) {
	if err, _, ok := f.check(OpReadDir, name); ok {
		return nil, err
	}
	return f.base.ReadDir(name)
}

func (f *Fault) Stat(name string) (fs.FileInfo, error) {
	if err, _, ok := f.check(OpStat, name); ok {
		return nil, err
	}
	return f.base.Stat(name)
}

func (f *Fault) Truncate(name string, size int64) error {
	if err, _, ok := f.check(OpTruncate, name); ok {
		return err
	}
	return f.base.Truncate(name, size)
}

func (f *Fault) Rename(oldpath, newpath string) error {
	if err, _, ok := f.check(OpRename, oldpath); ok {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f *Fault) Remove(name string) error {
	if err, _, ok := f.check(OpRemove, name); ok {
		return err
	}
	return f.base.Remove(name)
}

func (f *Fault) MkdirAll(name string, perm fs.FileMode) error {
	if err, _, ok := f.check(OpMkdir, name); ok {
		return err
	}
	return f.base.MkdirAll(name, perm)
}

func (f *Fault) SyncDir(dir string) error {
	if err, _, ok := f.check(OpSyncDir, dir); ok {
		return err
	}
	return f.base.SyncDir(dir)
}

// ParseSchedule builds a fault FS over base from a compact schedule spec —
// the -wal-fault CLI syntax used by the chaos smoke script, in the language
// fault.Parse describes. The disk's ops are write, sync, create, open,
// readdir, stat, truncate, rename, remove, mkdir and syncdir; its own fields
// are path=SUBSTR (match only paths containing SUBSTR) and err=eio|enospc
// (default eio):
//
//	op[:after=N][:times=M][:p=F][:partial=K][:path=SUBSTR][:err=eio|enospc]
//
// Examples:
//
//	sync:after=40:times=3              the 41st..43rd fsyncs fail with EIO
//	write:after=100:times=0:partial=7  the 101st write tears at byte 7
//	rename:path=ckpt:times=-1          every checkpoint rename fails forever
//	sync:p=0.01:times=-1               each fsync fails with probability 1%
func ParseSchedule(base FS, seed int64, spec string) (*Fault, error) {
	p, err := fault.Parse(&grammar, seed, spec)
	if err != nil {
		return nil, err
	}
	return &Fault{Plan: p, base: base}, nil
}
