package snapshot

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// fileWriters recycles WriteFileFunc's write buffers. 64 KiB holds a
// typical spill file in a handful of flushes; larger writes pass
// through bufio to the file directly.
var fileWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, 64<<10) }}

// countingWriter counts the bytes its underlying writer accepted.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteFileFunc atomically replaces path with whatever write produces:
// the content goes to a temporary file in the same directory, is
// fsynced, and renamed into place, so a reader never observes a torn
// file. Returns the bytes written. On any error the previous file is
// left untouched.
func WriteFileFunc(path string, write func(io.Writer) error) (int64, error) {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	cw := &countingWriter{w: tmp}
	bw := fileWriters.Get().(*bufio.Writer)
	bw.Reset(cw)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(nil) // drop the file before pooling the buffer
	fileWriters.Put(bw)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	return cw.n, os.Rename(tmp.Name(), path)
}
