package snapshot

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileFunc: the returned byte count is the file's size for
// payloads below and above the write buffer, a failed write leaves the
// previous file and no temporary behind, and its buffered bytes never
// reach the next write through the pooled buffer.
func TestWriteFileFunc(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pair.snap")
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i * 7)
		}
		return b
	}
	for _, n := range []int{0, 1, 1000, 64 << 10, 300 << 10} {
		want := payload(n)
		got, err := WriteFileFunc(path, func(w io.Writer) error {
			_, err := w.Write(want)
			return err
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(n) || !bytes.Equal(data, want) {
			t.Fatalf("n=%d: reported %d bytes, file holds %d (equal content: %v)", n, got, len(data), bytes.Equal(data, want))
		}
	}

	prev, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := WriteFileFunc(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, prev) {
		t.Fatal("failed write replaced the previous file")
	}
	if n, err := WriteFileFunc(path, func(w io.Writer) error {
		_, err := w.Write([]byte("abc"))
		return err
	}); err != nil || n != 3 {
		t.Fatalf("write after a failure: n=%d err=%v", n, err)
	}
	if data, _ := os.ReadFile(path); string(data) != "abc" {
		t.Fatalf("file holds %q, want %q", data, "abc")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries in the directory, want only the target file", len(entries))
	}
}
