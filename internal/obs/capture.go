package obs

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Traffic capture files: an append-only log of opaque records, each
// prefixed by a 4-byte big-endian length, rotated across numbered
// files so a long-running capture never grows one unbounded file. The
// format is deliberately free of any schema — the serve layer stores
// its own envelope inside each record — which keeps this package free
// of serving types and makes the reader reusable for any
// record-per-event capture.
//
// Durability model: every Append is one write(2) of the framed record
// to an O_APPEND file, so records written before a crash are intact
// and a torn final record (the crash mid-write) is detected by the
// reader as a short frame and reported, not silently absorbed.

// captureExt and capturePrefix name capture files: capture-000000.cap,
// capture-000001.cap, ... in the capture directory, ordered by
// sequence number.
const (
	capturePrefix = "capture-"
	captureExt    = ".cap"
)

// maxCaptureRecord bounds one record on read and write (64 MiB — the
// serve layer's own request-body ceiling), so a corrupt length prefix
// cannot ask the reader for a multi-gigabyte allocation.
const maxCaptureRecord = 64 << 20

// DefaultCaptureFileBytes is the rotation threshold when
// NewCaptureWriter is given none.
const DefaultCaptureFileBytes = 64 << 20

// CaptureWriter appends length-prefixed records to rotating files in
// one directory. Safe for concurrent use.
type CaptureWriter struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	f        *os.File
	seq      int
	written  int64
	records  int64
	closed   bool
}

// NewCaptureWriter opens (creating if needed) dir for appending.
// Existing capture files are never overwritten: writing resumes on a
// fresh file after the highest existing sequence number. maxFileBytes
// is the rotation threshold (0 selects DefaultCaptureFileBytes).
func NewCaptureWriter(dir string, maxFileBytes int64) (*CaptureWriter, error) {
	if maxFileBytes <= 0 {
		maxFileBytes = DefaultCaptureFileBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: creating capture dir: %w", err)
	}
	existing, err := CaptureFiles(dir)
	if err != nil {
		return nil, err
	}
	seq := 0
	if n := len(existing); n > 0 {
		last := existing[n-1]
		fmt.Sscanf(filepath.Base(last), capturePrefix+"%d"+captureExt, &seq)
		seq++
	}
	w := &CaptureWriter{dir: dir, maxBytes: maxFileBytes, seq: seq}
	if err := w.openLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// openLocked starts the next numbered capture file.
func (w *CaptureWriter) openLocked() error {
	name := filepath.Join(w.dir, fmt.Sprintf("%s%06d%s", capturePrefix, w.seq, captureExt))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("obs: opening capture file: %w", err)
	}
	w.f = f
	w.written = 0
	return nil
}

// Append writes one record. The frame (prefix + payload) lands in a
// single write call; when the current file would exceed the rotation
// threshold, a new one is started first.
func (w *CaptureWriter) Append(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("obs: empty capture record")
	}
	if len(rec) > maxCaptureRecord {
		return fmt.Errorf("obs: capture record of %d bytes exceeds the %d limit", len(rec), maxCaptureRecord)
	}
	framed := make([]byte, 4+len(rec))
	binary.BigEndian.PutUint32(framed, uint32(len(rec)))
	copy(framed[4:], rec)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return fmt.Errorf("obs: capture writer is closed")
	}
	if w.written > 0 && w.written+int64(len(framed)) > w.maxBytes {
		if err := w.f.Close(); err != nil {
			return fmt.Errorf("obs: rotating capture file: %w", err)
		}
		w.seq++
		if err := w.openLocked(); err != nil {
			return err
		}
	}
	if _, err := w.f.Write(framed); err != nil {
		return fmt.Errorf("obs: writing capture record: %w", err)
	}
	w.written += int64(len(framed))
	w.records++
	return nil
}

// Records reports how many records this writer has appended.
func (w *CaptureWriter) Records() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Dir returns the capture directory.
func (w *CaptureWriter) Dir() string { return w.dir }

// Close flushes and closes the current file. Further Appends fail.
func (w *CaptureWriter) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("obs: closing capture file: %w", err)
	}
	return nil
}

// CaptureFiles lists dir's capture files in write (sequence) order.
func CaptureFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: reading capture dir: %w", err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || len(name) < len(capturePrefix)+len(captureExt) {
			continue
		}
		if name[:len(capturePrefix)] == capturePrefix && filepath.Ext(name) == captureExt {
			files = append(files, filepath.Join(dir, name))
		}
	}
	sort.Strings(files) // zero-padded sequence numbers sort lexically
	return files, nil
}

// ReadCaptureFile streams every record of one capture file through fn,
// stopping at fn's first error. A truncated final frame (a writer
// crashed mid-record) is an error naming the file and offset.
func ReadCaptureFile(path string, fn func(rec []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("obs: opening capture file: %w", err)
	}
	defer f.Close()
	var prefix [4]byte
	offset := int64(0)
	for {
		if _, err := io.ReadFull(f, prefix[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("obs: %s: truncated record prefix at offset %d", path, offset)
		}
		n := binary.BigEndian.Uint32(prefix[:])
		if n == 0 || n > maxCaptureRecord {
			return fmt.Errorf("obs: %s: implausible record length %d at offset %d (corrupt file?)", path, n, offset)
		}
		// Allocate only what the file holds: a corrupt prefix near the
		// end of a small file must not cost a 64 MiB buffer. The size is
		// read per record because a live capture keeps growing.
		fi, err := f.Stat()
		if err != nil {
			return fmt.Errorf("obs: %s: %w", path, err)
		}
		if left := fi.Size() - offset - 4; int64(n) > left {
			return fmt.Errorf("obs: %s: truncated record at offset %d (%d of %d bytes)", path, offset, max(left, 0), n)
		}
		rec := make([]byte, n)
		if got, err := io.ReadFull(f, rec); err != nil {
			return fmt.Errorf("obs: %s: truncated record at offset %d (%d of %d bytes)", path, offset, got, n)
		}
		if err := fn(rec); err != nil {
			return err
		}
		offset += int64(4 + n)
	}
}

// ReadCaptureDir streams every record of every capture file in dir, in
// write order.
func ReadCaptureDir(dir string, fn func(rec []byte) error) error {
	files, err := CaptureFiles(dir)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("obs: no capture files (%s*%s) in %s", capturePrefix, captureExt, dir)
	}
	for _, path := range files {
		if err := ReadCaptureFile(path, fn); err != nil {
			return err
		}
	}
	return nil
}
