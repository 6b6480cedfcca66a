package storage

import (
	"bytes"
	"testing"
	"time"
)

func TestOSDirRoundTrip(t *testing.T) {
	fs := OSDir{Dir: t.TempDir() + "/ckpt"}
	f, err := fs.Create("wal-1.tmp")
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
	if err := fs.Rename("wal-1.tmp", "wal-1"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "wal-1" {
		t.Fatalf("List = %v, want [wal-1]", names)
	}
	b, err := fs.ReadFile("wal-1")
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if err := fs.Remove("wal-1"); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(); len(names) != 0 {
		t.Fatalf("List after Remove = %v", names)
	}
}

func TestCodecIntAndTime(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	at := time.Date(2026, 7, 4, 12, 0, 0, 123456789, time.UTC)
	w.WriteInt(-42)
	w.WriteTime(at)
	w.WriteTime(time.Time{})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(buf.Bytes())
	r.Expect(Magic)
	if n := r.Int(); n != -42 {
		t.Fatalf("Int = %d", n)
	}
	if got := r.Time(); !got.Equal(at) {
		t.Fatalf("Time = %v; want %v", got, at)
	}
	if z := r.Time(); !z.IsZero() {
		t.Fatalf("zero Time = %v", z)
	}
	if err := r.Err(); err != nil || r.Len() != 0 {
		t.Fatalf("after the last record: err=%v, %d bytes left", err, r.Len())
	}
}
