package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	var fsys FS = OS{}
	path := filepath.Join(dir, "a.txt")
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := fsys.CreateExcl(path); err == nil {
		t.Fatal("CreateExcl over an existing file succeeded")
	}
	fa, err := fsys.OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	fa.Write([]byte(" world"))
	fa.Close()
	raw, err := os.ReadFile(path)
	if err != nil || string(raw) != "hello world" {
		t.Fatalf("content %q (%v)", raw, err)
	}
	if err := fsys.Truncate(path, 5); err != nil {
		t.Fatal(err)
	}
	fi, err := fsys.Stat(path)
	if err != nil || fi.Size() != 5 {
		t.Fatalf("stat after truncate: %v %v", fi, err)
	}
	if err := fsys.Rename(path, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
	ents, err := fsys.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "b.txt" {
		t.Fatalf("readdir: %v %v", ents, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Remove(filepath.Join(dir, "b.txt")); err != nil {
		t.Fatal(err)
	}
	if err := fsys.MkdirAll(filepath.Join(dir, "x/y"), 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestFaultAfterTimes pins the arm/fire bookkeeping: After skips, Times
// bounds, and the schedule heals once exhausted.
func TestFaultAfterTimes(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS{}, 1)
	f.Inject(Rule{Op: OpSync, After: 2, Times: 3})

	file, err := f.Create(filepath.Join(dir, "w"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	var got []bool
	for i := 0; i < 8; i++ {
		got = append(got, file.Sync() != nil)
	}
	want := []bool{false, false, true, true, true, false, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sync faults = %v, want %v", got, want)
		}
	}
	if f.Count(OpSync) != 8 || f.Errors(OpSync) != 3 || f.ErrorsTotal() != 3 {
		t.Fatalf("counts: syncs=%d errs=%d total=%d", f.Count(OpSync), f.Errors(OpSync), f.ErrorsTotal())
	}
}

func TestFaultPartialWrite(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS{}, 1)
	f.Inject(Rule{Op: OpWrite, Partial: 3, Effect: Effect{Err: syscall.ENOSPC}})
	path := filepath.Join(dir, "torn")
	file, err := f.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := file.Write([]byte("abcdefgh"))
	if n != 3 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("torn write = (%d, %v), want (3, ENOSPC)", n, err)
	}
	// The rule fired once; the retry goes through whole.
	if n, err := file.Write([]byte("retry")); n != 5 || err != nil {
		t.Fatalf("retry = (%d, %v)", n, err)
	}
	file.Close()
	raw, _ := os.ReadFile(path)
	if string(raw) != "abcretry" {
		t.Fatalf("file content %q, want the torn prefix + retry", raw)
	}
}

func TestFaultPathMatchAndForever(t *testing.T) {
	dir := t.TempDir()
	f := NewFault(OS{}, 1)
	f.Inject(Rule{Op: OpRename, Times: -1, Effect: Effect{Path: "ckpt"}})
	if err := os.WriteFile(filepath.Join(dir, "ckpt-1.tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "other.tmp"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := f.Rename(filepath.Join(dir, "ckpt-1.tmp"), filepath.Join(dir, "ckpt-1.ckpt")); err == nil {
			t.Fatalf("rename %d matching path did not fail", i)
		}
	}
	if err := f.Rename(filepath.Join(dir, "other.tmp"), filepath.Join(dir, "other.dat")); err != nil {
		t.Fatalf("non-matching rename failed: %v", err)
	}
	f.Clear()
	if err := f.Rename(filepath.Join(dir, "ckpt-1.tmp"), filepath.Join(dir, "ckpt-1.ckpt")); err != nil {
		t.Fatalf("rename after Clear failed: %v", err)
	}
}

// TestFaultSeededProbDeterministic: the same seed gives the same
// probabilistic fault schedule.
func TestFaultSeededProbDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		dir := t.TempDir()
		f := NewFault(OS{}, seed)
		f.Inject(Rule{Op: OpSync, Prob: 0.3, Times: -1})
		file, err := f.Create(filepath.Join(dir, "p"))
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		out := make([]bool, 64)
		for i := range out {
			out[i] = file.Sync() != nil
		}
		return out
	}
	a, b, c := run(7), run(7), run(8)
	same := func(x, y []bool) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if same(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestParseSchedule(t *testing.T) {
	f, err := ParseSchedule(OS{}, 1, "sync:after=1:times=2:err=enospc; write:partial=4 ; rename:path=ckpt:times=-1")
	if err != nil {
		t.Fatal(err)
	}
	rules := f.Rules()
	if len(rules) != 3 {
		t.Fatalf("parsed %d rules", len(rules))
	}
	r := rules[0]
	if r.Op != OpSync || r.After != 1 || r.Times != 2 || !errors.Is(r.Effect.Err, syscall.ENOSPC) {
		t.Fatalf("rule 0 = %+v", r)
	}
	if rules[1].Op != OpWrite || rules[1].Partial != 4 {
		t.Fatalf("rule 1 = %+v", rules[1])
	}
	if rules[2].Effect.Path != "ckpt" || rules[2].Times != -1 {
		t.Fatalf("rule 2 = %+v", rules[2])
	}
	if got, want := f.Schedule(), "sync:after=1:times=2:err=enospc;write:partial=4;rename:times=-1:path=ckpt"; got != want {
		t.Fatalf("Schedule() = %q, want %q", got, want)
	}
	for _, bad := range []string{
		"fsync", "sync:after=x", "sync:bogus=1", "sync:err=nope", "sync:times",
		"sync:after=-3", "sync:p=7", "sync:p=-1", "sync:times=-5", "write:partial=-2", "sync:partial=4",
	} {
		if _, err := ParseSchedule(OS{}, 1, bad); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}
}

// FuzzVFSSchedule is FuzzNetfaultSchedule for the disk grammar: any accepted
// spec must re-render canonically (render → parse → render is a fixed
// point) with every rule in range, and malformed input must be rejected,
// never panic.
func FuzzVFSSchedule(f *testing.F) {
	f.Add("sync:after=1:times=2:err=enospc; write:partial=4 ; rename:path=ckpt:times=-1")
	f.Add("write:p=0.08:times=-1:partial=5;sync:p=0.10:times=-1")
	f.Add("write:path=.seg:times=-1")
	f.Add("write:after=100:times=0:partial=7")
	f.Add("sync:p=0.01:times=-1:err=eio")
	f.Add("syncdir;mkdir:path=a=b")
	f.Add("write: path = x :times=1")
	f.Add("::::")
	f.Add("")
	f.Fuzz(func(t *testing.T, spec string) {
		fi, err := ParseSchedule(OS{}, 1, spec)
		if err != nil {
			return
		}
		out := fi.Schedule()
		fi2, err := ParseSchedule(OS{}, 1, out)
		if err != nil {
			t.Fatalf("re-render %q of accepted %q rejected: %v", out, spec, err)
		}
		if got := fi2.Schedule(); got != out {
			t.Fatalf("render not a fixed point: %q -> %q -> %q", spec, out, got)
		}
		for _, r := range fi.Rules() {
			if r.Times < -1 || r.After < 0 || !(r.Prob >= 0 && r.Prob <= 1) || r.Partial < 0 ||
				(r.Partial > 0 && r.Op != OpWrite) {
				t.Fatalf("accepted out-of-range rule %+v from %q", r, spec)
			}
			if e := r.Effect.Err; e != nil && e != syscall.EIO && e != syscall.ENOSPC {
				t.Fatalf("accepted unknown error %v from %q", e, spec)
			}
		}
	})
}
