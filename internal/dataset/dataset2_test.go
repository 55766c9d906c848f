package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"geoloc/internal/ipaddr"
)

// writeV2 serializes the compiled fixture through Writer2 and returns
// the artifact path.
func writeV2(t *testing.T, ds *Dataset, blockSize int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "ds.geodset2")
	w, err := NewWriter2(path, ds.Hdr, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		if err := w.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDataset2RoundTrip: every record written through Writer2 comes
// back through the block reader — scan order, lookup hits, and header
// provenance all matching the in-RAM GEODSET1 fixture.
func TestDataset2RoundTrip(t *testing.T) {
	ds := compiled(t)
	for _, blockSize := range []int{1, 3, 16, len(ds.Records), len(ds.Records) + 7} {
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			r2, err := Open2(writeV2(t, ds, blockSize))
			if err != nil {
				t.Fatal(err)
			}
			defer r2.Close()
			if r2.NumRecords() != len(ds.Records) {
				t.Fatalf("%d records, want %d", r2.NumRecords(), len(ds.Records))
			}
			wantBlocks := (len(ds.Records) + blockSize - 1) / blockSize
			if r2.NumBlocks() != wantBlocks {
				t.Fatalf("%d blocks, want %d", r2.NumBlocks(), wantBlocks)
			}
			hdr := r2.Header()
			if hdr.Version != Version2 || hdr.ConfigHash != ds.Hdr.ConfigHash ||
				hdr.Seed != ds.Hdr.Seed || hdr.Profile != ds.Hdr.Profile {
				t.Fatalf("header %+v does not carry fixture provenance %+v", hdr, ds.Hdr)
			}
			i := 0
			if err := r2.All(func(r Record) error {
				if r != ds.Records[i] {
					return fmt.Errorf("record %d: %+v want %+v", i, r, ds.Records[i])
				}
				i++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if i != len(ds.Records) {
				t.Fatalf("scan stopped at %d of %d", i, len(ds.Records))
			}
			for _, want := range ds.Records {
				got, ok, err := r2.Lookup(want.Prefix)
				if err != nil {
					t.Fatal(err)
				}
				if !ok || got != want {
					t.Fatalf("lookup %s: ok=%v got %+v want %+v", want.Prefix, ok, got, want)
				}
			}
		})
	}
}

// TestDataset2LookupOracle compares every block-index lookup against a
// linear scan of the record slice — present prefixes, absent neighbours,
// and the extremes of the key space.
func TestDataset2LookupOracle(t *testing.T) {
	ds := compiled(t)
	r2, err := Open2(writeV2(t, ds, 4))
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
		gotR, gotOK, err := r2.Lookup(p)
		if err != nil {
			t.Fatalf("lookup %s: %v", p, err)
		}
		if gotOK != wantOK || gotR != wantR {
			t.Fatalf("lookup %s: got (%+v, %v), linear scan says (%+v, %v)",
				p, gotR, gotOK, wantR, wantOK)
		}
	}
}

// patchFrameCRC recomputes the CRC of the frame starting at off so a
// deliberate payload tamper isn't masked by the frame checksum — the
// point is to hit the reader's structural validation, not its CRC.
func patchFrameCRC(img []byte, off int) {
	plen := int(binary.LittleEndian.Uint32(img[off+1:]))
	crc := crc32.NewIEEE()
	crc.Write(img[off : off+1])
	crc.Write(img[off+frameOverhead : off+frameOverhead+plen])
	binary.LittleEndian.PutUint32(img[off+5:], crc.Sum32())
}

// openBytes runs NewReader2 over an in-memory image.
func openBytes(img []byte) (*Reader2, error) {
	return NewReader2(img)
}

// TestDataset2ErrorTaxonomy: every way a GEODSET2 file can be damaged
// maps to a named error, and damage the open-time validation cannot see
// (inside a block) surfaces at read time — never as a silent wrong
// answer.
func TestDataset2ErrorTaxonomy(t *testing.T) {
	ds := compiled(t)
	path := writeV2(t, ds, 4)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[0] ^= 0x01
		if _, err := openBytes(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("got %v, want ErrBadMagic", err)
		}
	})

	t.Run("truncation-sweep", func(t *testing.T) {
		// A cut anywhere must be caught at open (the footer is the last
		// thing written, so any truncation destroys it) and must map to a
		// named error.
		for cut := 0; cut < len(img); cut++ {
			_, err := openBytes(img[:cut])
			if err == nil {
				t.Fatalf("cut %d: truncated file opened cleanly", cut)
			}
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) &&
				!errors.Is(err, ErrBadMagic) {
				t.Fatalf("cut %d: unnamed error %v", cut, err)
			}
		}
	})

	t.Run("footer-crc", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(bad)-footerLen] ^= 0x01 // indexOff byte; footer CRC now stale
		if _, err := openBytes(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("got %v, want ErrCorrupt", err)
		}
	})

	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), img...)
		bad[len(Magic2)+frameOverhead] = 3 // header payload version u32, low byte
		patchFrameCRC(bad, len(Magic2))
		if _, err := openBytes(bad); !errors.Is(err, ErrBadVersion) {
			t.Fatalf("got %v, want ErrBadVersion", err)
		}
	})

	t.Run("block-crc", func(t *testing.T) {
		// Flip a record byte inside the first block without fixing the
		// frame CRC: open succeeds (blocks are validated lazily), the read
		// fails with ErrCorrupt.
		hdrPlen := int(binary.LittleEndian.Uint32(img[len(Magic2)+1:]))
		blockOff := len(Magic2) + frameOverhead + hdrPlen
		bad := append([]byte(nil), img...)
		bad[blockOff+frameOverhead+2+8] ^= 0x40 // a centroid byte of record 0
		r2, err := openBytes(bad)
		if err != nil {
			t.Fatalf("open rejected lazy-validated damage: %v", err)
		}
		if err := r2.All(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan over torn block: got %v, want ErrCorrupt", err)
		}
		if _, _, err := r2.Lookup(ds.Records[0].Prefix); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("lookup into torn block: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("out-of-order-block", func(t *testing.T) {
		// Swap the first two records inside block 0 and re-seal the frame
		// CRC: the checksum passes, the ordering invariant must not.
		hdrPlen := int(binary.LittleEndian.Uint32(img[len(Magic2)+1:]))
		blockOff := len(Magic2) + frameOverhead + hdrPlen
		bad := append([]byte(nil), img...)
		r0 := blockOff + frameOverhead + 2
		tmpRec := make([]byte, recordPayloadLen)
		copy(tmpRec, bad[r0:r0+recordPayloadLen])
		copy(bad[r0:r0+recordPayloadLen], bad[r0+recordPayloadLen:r0+2*recordPayloadLen])
		copy(bad[r0+recordPayloadLen:r0+2*recordPayloadLen], tmpRec)
		patchFrameCRC(bad, blockOff)
		r2, err := openBytes(bad)
		if err != nil {
			// The index carries per-block first keys, so open-time
			// validation may already spot the mismatch; that's fine as long
			// as it's named.
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: got %v, want ErrCorrupt", err)
			}
			return
		}
		if err := r2.All(func(Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan over reordered block: got %v, want ErrCorrupt", err)
		}
	})

	t.Run("writer-rejects-disorder", func(t *testing.T) {
		w, err := NewWriter2(filepath.Join(t.TempDir(), "x.geodset2"), ds.Hdr, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
		if err := w.Add(Record{Prefix: 10, Sanitized: true}); err != nil {
			t.Fatal(err)
		}
		if err := w.Add(Record{Prefix: 10, Sanitized: true}); err == nil {
			t.Fatal("duplicate prefix accepted")
		}
		if err := w.Add(Record{Prefix: 9, Sanitized: true}); err == nil {
			t.Fatal("descending prefix accepted")
		}
	})
}

// TestLoadAny covers the format-sniffing loader used by client-side
// tools: both artifact generations load into the same in-RAM view.
func TestLoadAny(t *testing.T) {
	ds := compiled(t)
	dir := t.TempDir()

	v1 := filepath.Join(dir, "v1.bin")
	if err := ds.Write(v1); err != nil {
		t.Fatal(err)
	}
	v2 := writeV2(t, ds, 8)

	for name, path := range map[string]string{"v1": v1, "v2": v2} {
		got, err := LoadAny(path)
		if err != nil {
			t.Fatalf("LoadAny(%s): %v", name, err)
		}
		if len(got.Records) != len(ds.Records) {
			t.Fatalf("LoadAny(%s): %d records, want %d", name, len(got.Records), len(ds.Records))
		}
		for i := range got.Records {
			if got.Records[i] != ds.Records[i] {
				t.Fatalf("LoadAny(%s): record %d mismatch", name, i)
			}
		}
		if got.Hdr.ConfigHash != ds.Hdr.ConfigHash || got.Hdr.Seed != ds.Hdr.Seed {
			t.Fatalf("LoadAny(%s): header provenance mismatch", name)
		}
	}

	if _, err := LoadAny(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("LoadAny on missing file succeeded")
	}
}
