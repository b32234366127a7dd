package snapshot

import (
	"bufio"
	"io"
	"os"
	"path/filepath"
)

// WriteFileFunc atomically replaces path with whatever write produces:
// the content goes to a temporary file in the same directory, is
// fsynced, and renamed into place, so a reader never observes a torn
// file. Returns the bytes
// written. On any error the previous file is left untouched.
func WriteFileFunc(path string, write func(io.Writer) error) (int64, error) {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	bw := bufio.NewWriterSize(tmp, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	st, err := os.Stat(tmp.Name())
	if err != nil {
		return 0, err
	}
	return st.Size(), os.Rename(tmp.Name(), path)
}
