package storage_test

import (
	"errors"
	"testing"

	"github.com/activedb/ecaagent/internal/faults"
	"github.com/activedb/ecaagent/internal/storage"
)

// crashBeforeRename is a CrashDir whose process dies at the publish
// rename: the temp file is written and synced, the rename never happens.
type crashBeforeRename struct{ *faults.CrashDir }

var errKilled = errors.New("killed before the rename")

func (d crashBeforeRename) Rename(string, string) error {
	d.Crash()
	return errKilled
}

// TestPublishSurvivesCrash: a crash after Publish returns keeps the new
// image, and a crash before its rename keeps the previous file whole.
func TestPublishSurvivesCrash(t *testing.T) {
	dir := faults.NewCrashDir(7)
	if err := storage.Publish(dir, "snap", []byte("first image")); err != nil {
		t.Fatal(err)
	}
	dir.Crash()
	dir.Restart()
	if got, err := dir.ReadFile("snap"); err != nil || string(got) != "first image" {
		t.Fatalf("after a crash past Publish: %q, %v; want the published image", got, err)
	}

	if err := storage.Publish(crashBeforeRename{dir}, "snap", []byte("second image")); !errors.Is(err, errKilled) {
		t.Fatalf("Publish over a crashing rename: %v, want %v", err, errKilled)
	}
	dir.Restart()
	if got, err := dir.ReadFile("snap"); err != nil || string(got) != "first image" {
		t.Fatalf("after a crash before the rename: %q, %v; want the previous image", got, err)
	}
}
