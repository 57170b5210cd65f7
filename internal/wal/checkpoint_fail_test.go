package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"pskyline/internal/vfs"
)

// writeBlob is a trivial checkpoint payload for install tests.
func writeBlob(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// listDir names every entry in dir (the tests assert on debris).
func listDir(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestCheckpointInstallFailures drives WriteCheckpoint through a failure at
// every step of the install protocol — temp create, payload write, fsync,
// rename, directory sync — and asserts the two invariants the recovery path
// depends on: the previously installed checkpoint stays authoritative, and no
// *.ckpt.tmp debris survives the failed install.
func TestCheckpointInstallFailures(t *testing.T) {
	steps := []struct {
		name string
		rule vfs.Rule
		// dirSync failures happen after the rename: the new checkpoint file
		// exists (its durability is merely unproven), so the newest-ref
		// assertion differs.
		afterRename bool
	}{
		{"create", vfs.Rule{Op: vfs.OpCreate, Times: 1, Effect: vfs.Effect{Path: ".ckpt.tmp", Err: syscall.EIO}}, false},
		{"write", vfs.Rule{Op: vfs.OpWrite, Times: 1, Effect: vfs.Effect{Path: ".ckpt.tmp", Err: syscall.ENOSPC}}, false},
		{"write-torn", vfs.Rule{Op: vfs.OpWrite, Times: 1, Partial: 3, Effect: vfs.Effect{Path: ".ckpt.tmp", Err: syscall.EIO}}, false},
		{"fsync", vfs.Rule{Op: vfs.OpSync, Times: 1, Effect: vfs.Effect{Path: ".ckpt.tmp", Err: syscall.EIO}}, false},
		{"rename", vfs.Rule{Op: vfs.OpRename, Times: 1, Effect: vfs.Effect{Path: ".ckpt.tmp", Err: syscall.EIO}}, false},
		{"syncdir", vfs.Rule{Op: vfs.OpSyncDir, Times: 1, Effect: vfs.Effect{Err: syscall.EIO}}, true},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			fi := vfs.NewFault(vfs.OS{}, 1)
			prev, err := WriteCheckpoint(fi, dir, 100, writeBlob("old"))
			if err != nil {
				t.Fatalf("install baseline: %v", err)
			}

			fi.Inject(step.rule)
			if _, err := WriteCheckpoint(fi, dir, 200, writeBlob("new")); err == nil {
				t.Fatalf("install with %s failure succeeded", step.name)
			}

			for _, name := range listDir(t, dir) {
				if filepath.Ext(name) == ".tmp" {
					t.Fatalf("temp debris survived failed install: %v", listDir(t, dir))
				}
			}
			refs, err := Checkpoints(fi, dir)
			if err != nil {
				t.Fatal(err)
			}
			wantNewest := prev
			if step.afterRename {
				wantNewest = CheckpointRef{Path: filepath.Join(dir, checkpointName(200)), Seq: 200}
			}
			if len(refs) == 0 || refs[0] != wantNewest {
				t.Fatalf("newest checkpoint %+v, want %+v", refs, wantNewest)
			}

			// The surviving baseline is intact, not half-overwritten.
			blob, err := os.ReadFile(prev.Path)
			if err != nil || string(blob) != "old" {
				t.Fatalf("baseline checkpoint damaged: %q, %v", blob, err)
			}

			// A retry on the healed disk installs normally.
			if _, err := WriteCheckpoint(fi, dir, 300, writeBlob("retry")); err != nil {
				t.Fatalf("install after heal: %v", err)
			}
		})
	}
}

// TestOpenSweepsCheckpointTmp plants stale install debris — what a crash
// between temp-write and rename leaves behind — and verifies Open removes it
// and reports the sweep.
func TestOpenSweepsCheckpointTmp(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		tmp := filepath.Join(dir, checkpointName(uint64(i))+".tmp")
		if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, res, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if res.TmpFilesRemoved != 3 {
		t.Fatalf("TmpFilesRemoved = %d, want 3", res.TmpFilesRemoved)
	}
	for _, name := range listDir(t, dir) {
		if filepath.Ext(name) == ".tmp" {
			t.Fatalf("tmp debris survived Open: %v", listDir(t, dir))
		}
	}
}

// TestCheckpointFallbackChain verifies the reader-side contract: with several
// installed checkpoints, Checkpoints lists newest-first so a caller whose
// newest blob fails to decode can walk down to an older valid one.
func TestCheckpointFallbackChain(t *testing.T) {
	dir := t.TempDir()
	for i := 1; i <= 3; i++ {
		if _, err := WriteCheckpoint(nil, dir, uint64(i*100), writeBlob(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := Checkpoints(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 3 || refs[0].Seq != 300 || refs[1].Seq != 200 || refs[2].Seq != 100 {
		t.Fatalf("refs %+v, want seqs 300,200,100", refs)
	}
}
