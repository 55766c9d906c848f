//go:build unix

package dataset

import (
	"os"
	"syscall"
)

// mmapSupported reports whether Open2 maps artifacts on this platform
// (elsewhere it reads them into RAM).
const mmapSupported = true

// mmapFile maps the whole file at path read-only and shared. The
// mapping outlives the descriptor, which is closed before returning.
func mmapFile(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size <= 0 || int64(int(size)) != size {
		return nil, syscall.EINVAL
	}
	return syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a mapping produced by mmapFile.
func munmapFile(data []byte) error { return syscall.Munmap(data) }
