package storage

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// File is a writable file handle with explicit durability: Sync must not
// return until previously written bytes are on stable storage. The
// checkpoint and WAL writers are programmed against this instead of *os.File
// so the crash harness can substitute an in-memory filesystem that models
// torn writes and lost unsynced data.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// FS is a flat directory of files — everything the durability layer needs
// from a filesystem. Rename must be atomic with respect to crashes (the
// checkpoint writer's publish step relies on it), and SyncDir must make
// completed creates/renames/removes durable.
type FS interface {
	Create(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldName, newName string) error
	Remove(name string) error
	List() ([]string, error)
	SyncDir() error
}

// Publish writes img durably under name, replacing any previous file
// whole: it writes name+".tmp", fsyncs and closes it, renames it over
// name and fsyncs the directory. A crash at any step leaves either the
// previous file or the complete new one, never an empty or torn name.
func Publish(fs FS, name string, img []byte) error {
	tmp := name + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(img); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(err, f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, name); err != nil {
		return err
	}
	return fs.SyncDir()
}

// OSDir is the production FS: one real directory. The directory is created
// on first use.
type OSDir struct {
	Dir string
}

func (d OSDir) ensure() error { return os.MkdirAll(d.Dir, 0o755) }

// Create truncates or creates name inside the directory.
func (d OSDir) Create(name string) (File, error) {
	if err := d.ensure(); err != nil {
		return nil, err
	}
	return os.Create(filepath.Join(d.Dir, name))
}

// ReadFile reads the whole file.
func (d OSDir) ReadFile(name string) ([]byte, error) {
	return os.ReadFile(filepath.Join(d.Dir, name))
}

// Rename atomically replaces newName with oldName's content.
func (d OSDir) Rename(oldName, newName string) error {
	return os.Rename(filepath.Join(d.Dir, oldName), filepath.Join(d.Dir, newName))
}

// Remove deletes a file.
func (d OSDir) Remove(name string) error {
	return os.Remove(filepath.Join(d.Dir, name))
}

// List returns the directory's file names, sorted.
func (d OSDir) List() ([]string, error) {
	ents, err := os.ReadDir(d.Dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir fsyncs the directory itself, making renames and removals
// durable.
func (d OSDir) SyncDir() error {
	if err := d.ensure(); err != nil {
		return err
	}
	f, err := os.Open(d.Dir)
	if err != nil {
		return err
	}
	syncErr := f.Sync()
	closeErr := f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
