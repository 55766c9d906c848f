//go:build !unix

package dataset

import "errors"

// mmapSupported reports whether Open2 maps artifacts on this platform
// (elsewhere it reads them into RAM).
const mmapSupported = false

var errMmapUnsupported = errors.New("dataset: mmap not supported on this platform")

func mmapFile(string) ([]byte, error) { return nil, errMmapUnsupported }

func munmapFile([]byte) error { return nil }
