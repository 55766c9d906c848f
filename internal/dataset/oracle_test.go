package dataset

import (
	"os"
	"sort"
	"testing"

	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/rhash"
)

// randomRecords draws a sorted, duplicate-free set of /24 records. Half
// the prefixes extend a run of neighbours, so adjacent hits and the
// misses between runs both occur constantly; the key-space extremes
// join some sets so 0.0.0.0 and 255.255.255.255 can hit as well as miss.
func randomRecords(rs *rhash.Stream, n int) []Record {
	seen := map[ipaddr.Prefix24]bool{}
	var recs []Record
	add := func(p ipaddr.Prefix24) {
		if seen[p] {
			return
		}
		seen[p] = true
		recs = append(recs, Record{
			Prefix:    p,
			Centroid:  geo.Point{Lat: rs.Range(-90, 90), Lon: rs.Range(-180, 180)},
			RadiusKm:  rs.Range(0, 2000),
			Method:    Method(rs.Intn(int(numMethods))),
			Sanitized: rs.Bool(0.7),
		})
	}
	if rs.Bool(0.3) {
		add(0)
	}
	if rs.Bool(0.3) {
		add(0xFFFFFF)
	}
	for len(recs) < n {
		if len(recs) > 0 && rs.Bool(0.5) {
			if next := recs[len(recs)-1].Prefix + 1; next <= 0xFFFFFF {
				add(next)
				continue
			}
		}
		add(ipaddr.Prefix24(rs.Intn(1 << 24)))
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Prefix < recs[j].Prefix })
	return recs
}

// linearFind is the reference every read path must agree with: scan
// every record for the one whose /24 holds addr.
func linearFind(recs []Record, addr ipaddr.Addr) (Record, bool) {
	for _, r := range recs {
		if r.Prefix == ipaddr.Prefix24Of(addr) {
			return r, true
		}
	}
	return Record{}, false
}

// TestReadPathsMatchLinearScan is the property test over all three
// lookups: for rhash-seeded random /24 sets, Dataset.Find, the mapped
// Reader2.Find that Open2 returns, and a Reader2.Find over the file read
// into RAM must all equal a linear scan — at each record's first and
// last address, one beyond each side, the two ends of the address
// space, and random addresses.
func TestReadPathsMatchLinearScan(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 15
	}
	for trial := 0; trial < trials; trial++ {
		rs := rhash.New(0x0DAC1E, uint64(trial))
		ds := &Dataset{Hdr: Header{Seed: uint64(trial), Profile: "oracle"}, Records: randomRecords(rs, 1+rs.Intn(96))}
		path := writeV2(t, ds, 1+rs.Intn(8))
		mapped, err := Open2(path)
		if err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		inRAM, err := NewReader2(img)
		if err != nil {
			t.Fatal(err)
		}

		check := func(a ipaddr.Addr) {
			t.Helper()
			want, wantOK := linearFind(ds.Records, a)
			if got, ok := ds.Find(a); ok != wantOK || got != want {
				t.Fatalf("trial %d: Dataset.Find(%s) = %+v,%v; linear scan %+v,%v", trial, a, got, ok, want, wantOK)
			}
			for name, r2 := range map[string]*Reader2{"mapped": mapped, "in-RAM": inRAM} {
				got, ok, err := r2.Find(a)
				if err != nil {
					t.Fatalf("trial %d: %s Reader2.Find(%s): %v", trial, name, a, err)
				}
				if ok != wantOK || got != want {
					t.Fatalf("trial %d: %s Reader2.Find(%s) = %+v,%v; linear scan %+v,%v",
						trial, name, a, got, ok, want, wantOK)
				}
			}
		}
		for _, r := range ds.Records {
			lo, hi := r.Prefix.Addr(0), r.Prefix.Addr(255)
			check(lo)
			check(hi)
			check(lo - 1) // wraps to 255.255.255.255 below 0.0.0.0
			check(hi + 1) // wraps to 0.0.0.0 above 255.255.255.255
		}
		check(0)
		check(0xFFFFFFFF)
		for q := 0; q < 64; q++ {
			check(ipaddr.Addr(uint32(rs.Uint64())))
		}
		mapped.Close()
		inRAM.Close()
	}
}
