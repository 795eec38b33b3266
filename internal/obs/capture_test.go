package obs

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

func TestCaptureRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := NewCaptureWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		rec := []byte(fmt.Sprintf("record-%02d:%s", i, strings.Repeat("x", i*7)))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Records(); got != 20 {
		t.Errorf("Records() = %d, want 20", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if err := w.Append([]byte("late")); err == nil {
		t.Error("Append after Close succeeded")
	}

	var got [][]byte
	if err := ReadCaptureDir(dir, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCaptureRotationAndResume(t *testing.T) {
	dir := t.TempDir()
	// Tiny threshold: every ~50-byte record forces a rotation.
	w, err := NewCaptureWriter(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte("r"), 50)
	for i := 0; i < 5; i++ {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := CaptureFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("rotation produced %d files, want >= 3", len(files))
	}

	// A new writer in the same directory must not clobber old files.
	w2, err := NewCaptureWriter(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append([]byte("resumed")); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	count := 0
	var last []byte
	if err := ReadCaptureDir(dir, func(rec []byte) error {
		count++
		last = append([]byte(nil), rec...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 6 || string(last) != "resumed" {
		t.Errorf("after resume: %d records, last %q; want 6, \"resumed\"", count, last)
	}
}

func TestCaptureTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	w, err := NewCaptureWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("whole")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]byte("will-be-torn")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := CaptureFiles(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("files = %v, %v", files, err)
	}
	// Tear the final record: drop its last 3 bytes.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	err = ReadCaptureDir(dir, func(rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("torn tail: err = %v, want truncated-record error", err)
	}
	if len(got) != 1 || string(got[0]) != "whole" {
		t.Errorf("intact records before the tear = %q, want [whole]", got)
	}
}

// TestCaptureLengthBeyondFile: a prefix claiming ~64 MiB in a 5-byte
// file is reported without allocating the claimed length, and the
// error names the one byte that is there.
func TestCaptureLengthBeyondFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.cap")
	if err := os.WriteFile(path, []byte{0x03, 0xff, 0xff, 0xff, 'x'}, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := ReadCaptureFile(path, func([]byte) error {
		t.Fatal("a record reached fn")
		return nil
	})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "(1 of 67108863 bytes)") {
		t.Errorf("err = %v, want a truncated record naming 1 of 67108863 bytes", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("reading a 5-byte file allocated %d bytes", alloc)
	}
}

func TestCaptureEmptyDirAndBadRecords(t *testing.T) {
	dir := t.TempDir()
	if err := ReadCaptureDir(dir, func([]byte) error { return nil }); err == nil {
		t.Error("empty dir: want an error")
	}
	w, err := NewCaptureWriter(filepath.Join(dir, "sub"), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(nil); err == nil {
		t.Error("empty record accepted")
	}
}

// FuzzReadCaptureFile reads arbitrary bytes as a capture file: nothing
// panics, and every record handed out is non-empty and at most
// maxCaptureRecord bytes. The input's non-empty NUL-separated pieces,
// appended by a CaptureWriter that rotates every max(64, len/4) bytes,
// read back unchanged and in order. The threshold scales with the input
// so a large one still crosses rotation but writes a handful of files,
// not one per record, leaving the fuzzing budget to the reader.
func FuzzReadCaptureFile(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 3, 'a', 'b', 'c', 0, 0, 0, 1, 'd'})
	f.Add([]byte{0, 0, 0, 5, 'a'})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	// One directory per fuzz worker, with per-exec names in it that the
	// exec removes: a t.TempDir per exec cost as much as the exec's own
	// reads and writes.
	root := f.TempDir()
	var execs atomic.Int64
	f.Fuzz(func(t *testing.T, data []byte) {
		n := strconv.FormatInt(execs.Add(1), 10)
		raw, dir := filepath.Join(root, n+".cap"), filepath.Join(root, n)
		defer os.RemoveAll(dir)
		defer os.Remove(raw)
		if err := os.WriteFile(raw, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Most inputs are rejected somewhere; only what reaches fn is
		// checked.
		_ = ReadCaptureFile(raw, func(rec []byte) error {
			if len(rec) == 0 || len(rec) > maxCaptureRecord {
				t.Fatalf("record of %d bytes", len(rec))
			}
			return nil
		})

		var want [][]byte
		for _, rec := range bytes.Split(data, []byte{0}) {
			if len(rec) > 0 {
				want = append(want, rec)
			}
		}
		w, err := NewCaptureWriter(dir, int64(max(64, len(data)/4)))
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range want {
			if err := w.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		if err := ReadCaptureDir(w.Dir(), func(rec []byte) error {
			got = append(got, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("read %d records, wrote %d", len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("record %d = %q, wrote %q", i, got[i], want[i])
			}
		}
	})
}
