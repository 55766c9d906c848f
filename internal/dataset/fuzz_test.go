package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

// FuzzDatasetDecoder throws arbitrary bytes at Decode and checks its
// safety contract, mirroring internal/checkpoint's FuzzDecoder: no
// panics, no allocations driven by unvalidated length fields, and every
// failure — torn tails and bad CRCs included — is one of the package's
// named errors. When Decode succeeds, re-encoding the result must
// reproduce the input exactly: a dataset artifact has a single canonical
// byte form.
//
// Run locally with:
//
//	go test -fuzz FuzzDatasetDecoder -fuzztime 30s ./internal/dataset
func FuzzDatasetDecoder(f *testing.F) {
	// Seed corpus: a well-formed artifact, its truncations, and light
	// mutations, so the fuzzer starts at the format's edges.
	d := &Dataset{
		Hdr: Header{Version: Version, ConfigHash: 0xABCD, Seed: 7, Profile: "none"},
		Records: []Record{
			{Prefix: ipaddr.Prefix24Of(ipaddr.MustParse("10.0.0.1")),
				Centroid: geo.Point{Lat: 48.8, Lon: 2.3}, RadiusKm: 120, Method: MethodCBG, Sanitized: true},
			{Prefix: ipaddr.Prefix24Of(ipaddr.MustParse("10.0.1.1")),
				Centroid: geo.Point{Lat: -33.9, Lon: 151.2}, RadiusKm: 88.5, Method: MethodStreetLandmark, Sanitized: true},
			{Prefix: ipaddr.Prefix24Of(ipaddr.MustParse("10.0.2.1")),
				Centroid: geo.Point{Lat: 1.3, Lon: 103.8}, Method: MethodReported},
		},
	}
	img := d.Encode()
	f.Add(img)
	f.Add(img[:len(Magic)])
	f.Add(img[:len(Magic)+3])
	f.Add(img[:len(img)-1])
	f.Add(img[:len(img)/2])
	f.Add([]byte{})
	f.Add([]byte(Magic))
	f.Add([]byte("GEODSET2junk"))
	mut := append([]byte(nil), img...)
	mut[len(Magic)+2] ^= 0x40
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) &&
				!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) &&
				!errors.Is(err, ErrNoHeader) {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		if got.Hdr.Version != Version {
			t.Fatalf("accepted version %d", got.Hdr.Version)
		}
		for i, r := range got.Records {
			if i > 0 && got.Records[i-1].Prefix >= r.Prefix {
				t.Fatalf("accepted unsorted records at %d", i)
			}
			if uint32(r.Prefix) > 0x00FF_FFFF || Method(r.Method) >= numMethods {
				t.Fatalf("accepted invalid record %+v", r)
			}
		}
		// Canonical form: decode(encode(decode(x))) is the identity and
		// encode(decode(x)) == x byte for byte.
		if !bytes.Equal(got.Encode(), data) {
			t.Fatal("accepted input is not in canonical encoded form")
		}
	})
}

// FuzzDataset2Decoder throws arbitrary bytes at the block-indexed
// reader and checks the same safety contract at both validation layers:
// NewReader2's eager checks (footer, index, header) and the lazy
// per-block checks behind All/Lookup. No panics, no unvalidated-length
// allocations, every failure a named error — torn blocks, bad CRCs and
// out-of-order keys included. When the file opens, a full scan must
// yield exactly the advertised record count in strictly ascending
// order, and every scanned record must be findable by Lookup.
//
// Run locally with:
//
//	go test -fuzz FuzzDataset2Decoder -fuzztime 30s ./internal/dataset
func FuzzDataset2Decoder(f *testing.F) {
	// Seed corpus: a two-block artifact, its truncations, and targeted
	// mutations of the regions each validation layer guards.
	dir := f.TempDir()
	path := filepath.Join(dir, "seed.geodset2")
	w, err := NewWriter2(path, Header{ConfigHash: 0xABCD, Seed: 7, Profile: "none"}, 2)
	if err != nil {
		f.Fatal(err)
	}
	for i, pt := range []geo.Point{{Lat: 48.8, Lon: 2.3}, {Lat: -33.9, Lon: 151.2}, {Lat: 1.3, Lon: 103.8}} {
		if err := w.Add(Record{Prefix: ipaddr.Prefix24(0x0A0000 + i), Centroid: pt,
			RadiusKm: float64(50 * (i + 1)), Method: MethodCBG, Sanitized: true}); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		f.Fatal(err)
	}
	img, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(Magic2)])
	f.Add(img[:len(img)-1])
	f.Add(img[:len(img)-footerLen])
	f.Add(img[:len(img)/2])
	f.Add([]byte{})
	f.Add([]byte(Magic2))
	f.Add([]byte("GEODSET1junk"))
	for _, off := range []int{len(Magic2) + 2, len(img) / 2, len(img) - footerLen + 3, len(img) - 4} {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0x40
		f.Add(mut)
	}

	named := func(err error) bool {
		return errors.Is(err, ErrBadMagic) || errors.Is(err, ErrBadVersion) ||
			errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) ||
			errors.Is(err, ErrNoHeader)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r2, err := NewReader2(data)
		if err != nil {
			if !named(err) {
				t.Fatalf("unnamed open error: %v", err)
			}
			return
		}
		var recs []Record
		scanErr := r2.All(func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if scanErr != nil {
			if !named(scanErr) {
				t.Fatalf("unnamed scan error: %v", scanErr)
			}
			return
		}
		if len(recs) != r2.NumRecords() {
			t.Fatalf("scan yielded %d records, footer advertised %d", len(recs), r2.NumRecords())
		}
		for i, r := range recs {
			if i > 0 && recs[i-1].Prefix >= r.Prefix {
				t.Fatalf("accepted unsorted records at %d", i)
			}
			if uint32(r.Prefix) > 0x00FF_FFFF || Method(r.Method) >= numMethods {
				t.Fatalf("accepted invalid record %+v", r)
			}
			got, ok, err := r2.Lookup(r.Prefix)
			if err != nil || !ok || got != r {
				t.Fatalf("scanned record %s not found by lookup (ok=%v err=%v)", r.Prefix, ok, err)
			}
		}
	})
}
