package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

// openMappedBytes writes an in-memory image to a file and opens it with
// Open2 — the corruption tests work on byte images, the mapping only
// exists for files.
func openMappedBytes(t *testing.T, img []byte) (*Reader2, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "img.geodset2")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return Open2(path)
}

// TestOpenMappedOracle: the mapped reader Open2 returns, a reader over
// the same file read into RAM, and a linear scan of the source records
// agree on every probe — present prefixes, absent neighbours, and the
// key-space extremes — and Open2 actually mapped (on platforms that
// support it).
func TestOpenMappedOracle(t *testing.T) {
	ds := compiled(t)
	for _, blockSize := range []int{1, 4, len(ds.Records) + 7} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			path := writeV2(t, ds, blockSize)
			m, err := Open2(path)
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			if mmapSupported && !m.mapped {
				t.Fatal("mmap is supported here but Open2 read the file into RAM")
			}
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := NewReader2(img)
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()

			linear := func(p ipaddr.Prefix24) (Record, bool) {
				for _, r := range ds.Records {
					if r.Prefix == p {
						return r, true
					}
				}
				return Record{}, false
			}
			probes := []ipaddr.Prefix24{0, 1, 1 << 23, 0xFFFFFF}
			for _, r := range ds.Records {
				probes = append(probes, r.Prefix)
				if r.Prefix > 0 {
					probes = append(probes, r.Prefix-1)
				}
				if r.Prefix < 0xFFFFFF {
					probes = append(probes, r.Prefix+1)
				}
			}
			for _, p := range probes {
				wantR, wantOK := linear(p)
				ramR, ramOK, err := r2.Lookup(p)
				if err != nil {
					t.Fatalf("in-RAM lookup %s: %v", p, err)
				}
				mapR, mapOK, err := m.Lookup(p)
				if err != nil {
					t.Fatalf("mapped lookup %s: %v", p, err)
				}
				if mapOK != wantOK || mapR != wantR || ramOK != wantOK || ramR != wantR {
					t.Fatalf("lookup %s: mapped (%+v, %v), in-RAM (%+v, %v), linear scan says (%+v, %v)",
						p, mapR, mapOK, ramR, ramOK, wantR, wantOK)
				}
			}

			// The scan path agrees too.
			i := 0
			if err := m.All(func(r Record) error {
				if r != ds.Records[i] {
					return fmt.Errorf("record %d: %+v want %+v", i, r, ds.Records[i])
				}
				i++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if i != len(ds.Records) {
				t.Fatalf("mapped scan stopped at %d of %d", i, len(ds.Records))
			}
		})
	}
}

// TestOpenMappedErrorTaxonomy: a mapped reader must reject or surface
// every kind of damage with the package's named errors, never a panic —
// eager damage (footer, index, magic, truncation) at open, lazily
// validated damage (inside a block) on the first touch through the
// mapping.
func TestOpenMappedErrorTaxonomy(t *testing.T) {
	ds := compiled(t)
	path := writeV2(t, ds, 4)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[0] ^= 0x01
		if _, err := openMappedBytes(t, bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})

	t.Run("truncation-sweep", func(t *testing.T) {
		// Same contract as an in-RAM image: a cut anywhere fails at open
		// with a named error. Sampled cuts plus the structural
		// boundaries keep the file-backed sweep fast.
		cuts := []int{0, 1, len(Magic2), len(Magic2) + frameOverhead,
			len(img) - footerLen, len(img) - footerLen + 16, len(img) - 1}
		for c := 7; c < len(img); c += 13 {
			cuts = append(cuts, c)
		}
		for _, cut := range cuts {
			_, err := openMappedBytes(t, img[:cut])
			if err == nil {
				t.Fatalf("cut %d: truncated file mapped cleanly", cut)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, ErrBadMagic) {
				t.Fatalf("cut %d: unnamed error %v", cut, err)
			}
		}
	})

	t.Run("footer-crc", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(bad)-footerLen] ^= 0x01
		if _, err := openMappedBytes(t, bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("block-crc-first-touch", func(t *testing.T) {
		// Damage inside a block is invisible to open-time validation; the
		// first lookup that touches the block through the mapping must
		// report ErrCorrupt — and keep reporting it (the verified bit is
		// only ever set after a clean check).
		hdrPlen := int(binary.LittleEndian.Uint32(img[len(Magic2)+1:]))
		blockOff := len(Magic2) + frameOverhead + hdrPlen
		bad := append([]byte(nil), img...)
		bad[blockOff+frameOverhead+2+8] ^= 0x40
		m, err := openMappedBytes(t, bad)
		if err != nil {
			t.Fatalf("open rejected lazily-validated damage: %v", err)
		}
		defer m.Close()
		if mmapSupported && !m.mapped {
			t.Fatal("expected a mapped reader")
		}
		for try := 0; try < 2; try++ {
			if _, _, err := m.Lookup(ds.Records[0].Prefix); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("try %d: mapped lookup into torn block: got %v, want ErrCorrupt", try, err)
			}
		}
		if err := m.All(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mapped scan over torn block: got %v, want ErrCorrupt", err)
		}
		// Undamaged blocks still answer.
		last := ds.Records[len(ds.Records)-1]
		if got, ok, err := m.Lookup(last.Prefix); err != nil || !ok || got != last {
			t.Fatalf("undamaged block after torn block: got (%+v, %v, %v)", got, ok, err)
		}
	})

	t.Run("reordered-block-first-touch", func(t *testing.T) {
		// A re-sealed CRC cannot mask a sort violation.
		hdrPlen := int(binary.LittleEndian.Uint32(img[len(Magic2)+1:]))
		blockOff := len(Magic2) + frameOverhead + hdrPlen
		bad := append([]byte(nil), img...)
		r0 := blockOff + frameOverhead + 2
		tmpRec := make([]byte, recordPayloadLen)
		copy(tmpRec, bad[r0:r0+recordPayloadLen])
		copy(bad[r0:r0+recordPayloadLen], bad[r0+recordPayloadLen:r0+2*recordPayloadLen])
		copy(bad[r0+recordPayloadLen:r0+2*recordPayloadLen], tmpRec)
		patchFrameCRC(bad, blockOff)
		m, err := openMappedBytes(t, bad)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: got %v, want ErrCorrupt", err)
			}
			return
		}
		defer m.Close()
		if _, _, err := m.Lookup(ds.Records[0].Prefix); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mapped lookup into reordered block: got %v, want ErrCorrupt", err)
		}
	})
}

// TestMappedPinLifecycle: the generation-pinned close protocol. A pinned
// reader survives Close (the hot-swap case: in-flight requests still
// hold the retired generation); the last Unpin releases it; a released
// reader can never be re-pinned; Close is idempotent.
func TestMappedPinLifecycle(t *testing.T) {
	ds := compiled(t)
	m, err := Open2(writeV2(t, ds, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !m.TryPin() {
		t.Fatal("TryPin on a live reader failed")
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The owner reference is gone but our pin keeps the mapping alive.
	want := ds.Records[0]
	if got, ok, err := m.Lookup(want.Prefix); err != nil || !ok || got != want {
		t.Fatalf("lookup on pinned post-Close reader: (%+v, %v, %v)", got, ok, err)
	}
	if err := m.Close(); err != nil { // idempotent: must not steal our pin
		t.Fatal(err)
	}
	if got, ok, err := m.Lookup(want.Prefix); err != nil || !ok || got != want {
		t.Fatalf("lookup after double Close: (%+v, %v, %v)", got, ok, err)
	}
	m.Unpin()
	if m.TryPin() {
		t.Fatal("TryPin resurrected a fully released reader")
	}
}

// TestMappedConcurrentFirstTouch: many goroutines race the first-touch
// verification of the same blocks; everyone must see consistent answers
// (run under -race in CI).
func TestMappedConcurrentFirstTouch(t *testing.T) {
	ds := compiled(t)
	m, err := Open2(writeV2(t, ds, 2))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 3; pass++ {
				for i := (g * 7) % len(ds.Records); i < len(ds.Records); i++ {
					want := ds.Records[i]
					got, ok, err := m.Lookup(want.Prefix)
					if err != nil || !ok || got != want {
						errs <- fmt.Errorf("goroutine %d: lookup %s: (%+v, %v, %v)", g, want.Prefix, got, ok, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMappedLookupAllocs gates the mapped hot path: after first touch, a
// lookup through the mapping is allocation-free.
func TestMappedLookupAllocs(t *testing.T) {
	ds := compiled(t)
	m, err := Open2(writeV2(t, ds, 4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.mapped {
		t.Skip("mmap unsupported on this platform")
	}
	hit := ds.Records[len(ds.Records)/2].Prefix
	miss := hit + 1
	if _, _, err := m.Lookup(hit); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, _, err := m.Lookup(hit); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.Lookup(miss); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("mapped Lookup allocates %.1f times per hit+miss pair, want 0", n)
	}
}

// syntheticDataset is n consecutive /24s from base with valid payloads,
// large enough to span many pages when written as GEODSET2.
func syntheticDataset(n int, base ipaddr.Prefix24) *Dataset {
	ds := &Dataset{Hdr: Header{ConfigHash: 0xC0FFEE, Seed: 3, Profile: "synthetic"}}
	for i := 0; i < n; i++ {
		ds.Records = append(ds.Records, Record{
			Prefix:    base + ipaddr.Prefix24(i),
			Centroid:  geo.Point{Lat: float64(i%180) - 89.5, Lon: float64(i%360) - 179.5},
			RadiusKm:  float64(10 + i%500),
			Method:    MethodCBG,
			Sanitized: i%3 != 0,
		})
	}
	return ds
}

// TestTruncatedMappingFaultsToErrCorrupt: an artifact truncated in place
// under a live mapping — what `cp new live` does before it writes —
// turns lookups and scans that touch the lost pages into ErrCorrupt
// instead of a SIGBUS that kills the process. Blocks still backed by
// the file keep answering, whether or not they were touched before the
// cut, and the fault guard leaves the goroutine's SetPanicOnFault
// setting as it found it.
func TestTruncatedMappingFaultsToErrCorrupt(t *testing.T) {
	ds := syntheticDataset(4000, 0x0A0000) // ~120 KB: dozens of pages
	path := writeV2(t, ds, 16)
	m, err := Open2(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !m.mapped {
		t.Skip("mmap unsupported on this platform: nothing can fault")
	}
	first := ds.Records[0]
	touched := ds.Records[len(ds.Records)-1] // verified before the cut
	untouched := ds.Records[len(ds.Records)/2]
	if got, ok, err := m.Lookup(touched.Prefix); err != nil || !ok || got != touched {
		t.Fatalf("lookup before the cut: (%+v, %v, %v)", got, ok, err)
	}

	const cut = 8192 // keeps the header and the first blocks
	if err := os.Truncate(path, cut); err != nil {
		t.Fatal(err)
	}
	for _, want := range []Record{touched, untouched} {
		for try := 0; try < 2; try++ {
			if _, ok, err := m.Find(want.Prefix.Addr(9)); !errors.Is(err, ErrCorrupt) || ok {
				t.Fatalf("find %s past the cut (try %d): ok=%v err=%v, want ErrCorrupt", want.Prefix, try, ok, err)
			}
		}
	}
	if err := m.All(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("scan across the cut: got %v, want ErrCorrupt", err)
	}
	if got, ok, err := m.Lookup(first.Prefix); err != nil || !ok || got != first {
		t.Fatalf("lookup before the cut after truncation: (%+v, %v, %v)", got, ok, err)
	}
	if debug.SetPanicOnFault(false) {
		t.Fatal("the fault guard left SetPanicOnFault enabled")
	}
}

// TestAllCallbackPanicPropagates: the fault guard only covers reads of
// the artifact bytes, so a panic raised by All's callback reaches the
// caller unchanged instead of being swallowed or relabelled.
func TestAllCallbackPanicPropagates(t *testing.T) {
	m, err := Open2(writeV2(t, compiled(t), 4))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	sentinel := errors.New("callback panic")
	defer func() {
		if r := recover(); r != sentinel {
			t.Fatalf("recovered %v, want the callback's own panic value", r)
		}
	}()
	m.All(func(Record) error { panic(sentinel) })
	t.Fatal("All returned after its callback panicked")
}
