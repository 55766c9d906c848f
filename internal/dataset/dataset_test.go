package dataset

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/streetlevel"
	"geoloc/internal/world"
)

var (
	campOnce sync.Once
	camp     *core.Campaign
)

// tinyCampaign builds one shared tiny-scale campaign (matrices included)
// for every test in the package.
func tinyCampaign(t *testing.T) *core.Campaign {
	t.Helper()
	campOnce.Do(func() {
		camp = core.NewCampaign(world.TinyConfig())
		camp.BuildTargetMatrix()
	})
	return camp
}

func compiled(t *testing.T) *Dataset {
	t.Helper()
	return Compile(tinyCampaign(t), Options{IncludeUnsanitized: true})
}

func TestCompileShape(t *testing.T) {
	c := tinyCampaign(t)
	d := compiled(t)
	if len(d.Records) == 0 {
		t.Fatal("compiled dataset is empty")
	}
	if d.Hdr.Seed != c.W.Cfg.Seed || d.Hdr.ConfigHash != c.ConfigHash() || d.Hdr.Profile != "raw" {
		t.Fatalf("header %+v does not identify the campaign", d.Hdr)
	}
	sanitized, unsanitized := 0, 0
	for i, r := range d.Records {
		if i > 0 && d.Records[i-1].Prefix >= r.Prefix {
			t.Fatalf("records not strictly sorted at %d", i)
		}
		if r.Sanitized {
			sanitized++
			if r.Method != MethodCBG && r.Method != MethodShortestPing {
				t.Fatalf("sanitized record %s has method %s", r.Prefix, r.Method)
			}
			if r.RadiusKm <= 0 {
				t.Fatalf("sanitized record %s has no confidence radius", r.Prefix)
			}
		} else {
			unsanitized++
			if r.Method != MethodReported || r.RadiusKm != 0 {
				t.Fatalf("unsanitized record %s: method %s radius %g", r.Prefix, r.Method, r.RadiusKm)
			}
		}
		if !r.Centroid.Valid() {
			t.Fatalf("record %s has invalid centroid %v", r.Prefix, r.Centroid)
		}
	}
	// Targets can share a /24 (the allocator packs hosts per AS prefix),
	// and a removed anchor sharing a target's /24 loses to the sanitized
	// record — count distinct prefixes, not hosts.
	targetPfx := map[ipaddr.Prefix24]bool{}
	for _, target := range c.Targets {
		targetPfx[ipaddr.Prefix24Of(target.Addr)] = true
	}
	removedPfx := map[ipaddr.Prefix24]bool{}
	for _, id := range c.RemovedAnchors {
		p := ipaddr.Prefix24Of(c.W.Host(id).Addr)
		if !targetPfx[p] {
			removedPfx[p] = true
		}
	}
	if sanitized != len(targetPfx) {
		t.Fatalf("%d sanitized records, want one per distinct target /24 (%d)", sanitized, len(targetPfx))
	}
	if unsanitized != len(removedPfx) {
		t.Fatalf("%d unsanitized records, want one per distinct removed-anchor /24 (%d)", unsanitized, len(removedPfx))
	}
}

// TestConfidenceRadiusCoversTruth checks the HLOC-style contract on the
// synthetic ground truth: the true location lies within the confidence
// radius of the centroid. The analytic radius bound guarantees it
// whenever the truth satisfies every constraint, which the simulator's
// 2/3c speed bound ensures. Prefixes holding two different targets are
// skipped — a per-/24 dataset can only be right about one of them.
func TestConfidenceRadiusCoversTruth(t *testing.T) {
	c := tinyCampaign(t)
	d := Compile(c, Options{})
	perPrefix := map[ipaddr.Prefix24]int{}
	for _, target := range c.Targets {
		perPrefix[ipaddr.Prefix24Of(target.Addr)]++
	}
	covered, total := 0, 0
	for _, target := range c.Targets {
		if perPrefix[ipaddr.Prefix24Of(target.Addr)] > 1 {
			continue
		}
		r, ok := d.Find(target.Addr)
		if !ok || r.Method != MethodCBG {
			continue
		}
		total++
		if geo.Distance(r.Centroid, target.Loc) <= r.RadiusKm {
			covered++
		}
	}
	if total == 0 {
		t.Fatal("no CBG records to check")
	}
	if covered != total {
		t.Fatalf("%d of %d single-target prefixes outside their confidence radius", total-covered, total)
	}
}

func TestCompileDeterministic(t *testing.T) {
	c := tinyCampaign(t)
	a := Compile(c, Options{IncludeUnsanitized: true}).Encode()
	b := Compile(c, Options{IncludeUnsanitized: true}).Encode()
	if string(a) != string(b) {
		t.Fatal("recompiling the same campaign changed the artifact bytes")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := compiled(t)
	got, err := Decode(d.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Hdr != d.Hdr {
		t.Fatalf("header round-trip: %+v vs %+v", got.Hdr, d.Hdr)
	}
	if len(got.Records) != len(d.Records) {
		t.Fatalf("record count round-trip: %d vs %d", len(got.Records), len(d.Records))
	}
	for i := range got.Records {
		if got.Records[i] != d.Records[i] {
			t.Fatalf("record %d round-trip: %+v vs %+v", i, got.Records[i], d.Records[i])
		}
	}
}

func TestWriteLoad(t *testing.T) {
	d := compiled(t)
	path := filepath.Join(t.TempDir(), "tiny.geodset")
	if err := d.Write(path); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(got.Records) != len(d.Records) || got.Hdr != d.Hdr {
		t.Fatal("loaded dataset differs from written one")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("temporary file left behind")
	}
}

func TestDecodeNamedErrors(t *testing.T) {
	good := compiled(t).Encode()
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrBadMagic},
		{"bad magic", []byte("NOTADSET................"), ErrBadMagic},
		{"magic only", []byte(Magic), ErrNoHeader},
		{"torn tail", good[:len(good)-3], ErrTruncated},
		{"torn mid frame", good[:len(Magic)+4], ErrTruncated},
		{"flipped byte", flip(good, len(good)-2), ErrCorrupt},
		{"flipped header byte", flip(good, len(Magic)+frameOverhead+1), ErrCorrupt},
	}
	for _, c := range cases {
		_, err := Decode(c.data)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: Decode err = %v, want %v", c.name, err, c.want)
		}
	}
}

func flip(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xFF
	return out
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	d := compiled(t)
	d2 := &Dataset{Hdr: d.Hdr, Records: d.Records}
	d2.Hdr.Version = Version + 1
	// Encode forces the current version, so hand-build the bad frame.
	raw := append([]byte(Magic), frame(kindHeader, encodeHeader(d2.Hdr))...)
	if _, err := Decode(raw); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestDecodeRejectsUnsortedRecords(t *testing.T) {
	d := compiled(t)
	if len(d.Records) < 2 {
		t.Skip("need two records")
	}
	raw := append([]byte(Magic), frame(kindHeader, encodeHeader(d.Hdr))...)
	raw = append(raw, frame(kindRecord, encodeRecord(d.Records[1]))...)
	raw = append(raw, frame(kindRecord, encodeRecord(d.Records[0]))...)
	if _, err := Decode(raw); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt for unsorted records", err)
	}
}

// TestFindAndIndexAgree: on the compiled campaign dataset, Dataset.Find
// and the GEODSET2 block index written from the same records return
// the same record for an address inside every prefix, and both miss an
// address outside every prefix.
func TestFindAndIndexAgree(t *testing.T) {
	d := compiled(t)
	ix, err := Open2(writeV2(t, d, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer ix.Close()
	if ix.NumRecords() != len(d.Records) {
		t.Fatalf("index has %d records, dataset %d", ix.NumRecords(), len(d.Records))
	}
	for _, r := range d.Records {
		addr := r.Prefix.Addr(17)
		fr, ok := d.Find(addr)
		if !ok || fr != r {
			t.Fatalf("Find(%s) = %+v, %v", addr, fr, ok)
		}
		ir, ok, err := ix.Find(addr)
		if err != nil || !ok || ir != r {
			t.Fatalf("index Find(%s) = %+v, %v, %v; want %+v", addr, ir, ok, err, r)
		}
	}
	miss := ipaddr.MustParse("203.0.113.9")
	if _, ok := d.Find(miss); ok {
		t.Fatal("Find matched an address outside every prefix")
	}
	if _, ok, err := ix.Find(miss); ok || err != nil {
		t.Fatalf("index Find(%s) = %v, %v; want a clean miss", miss, ok, err)
	}
}

func TestSortRecordsDedupe(t *testing.T) {
	d := &Dataset{Records: []Record{
		{Prefix: 30, RadiusKm: 50, Method: MethodCBG, Sanitized: true},
		{Prefix: 10, RadiusKm: 5, Method: MethodReported},
		{Prefix: 10, RadiusKm: 99, Method: MethodCBG, Sanitized: true},
		{Prefix: 30, RadiusKm: 20, Method: MethodCBG, Sanitized: true},
	}}
	sortRecords(d)
	if len(d.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(d.Records))
	}
	if !d.Records[0].Sanitized || d.Records[0].RadiusKm != 99 {
		t.Fatalf("prefix 10 kept %+v, want the sanitized record", d.Records[0])
	}
	if d.Records[1].RadiusKm != 20 {
		t.Fatalf("prefix 30 kept %+v, want the tighter radius", d.Records[1])
	}
}

func TestMergeStreetLevel(t *testing.T) {
	c := tinyCampaign(t)
	d := Compile(c, Options{})
	res := []streetlevel.Result{
		{Target: 0, Estimate: geo.Point{Lat: 1.25, Lon: 2.5}, Method: "landmark"},
		{Target: 1, Estimate: geo.Point{Lat: -3, Lon: 4}, Method: "cbg"},
		{Target: 99999, Estimate: geo.Point{}, Method: "landmark"}, // out of range: ignored
	}
	if n := MergeStreetLevel(d, c, res); n != 2 {
		t.Fatalf("updated %d records, want 2", n)
	}
	r0, _ := d.Find(c.Targets[0].Addr)
	if r0.Method != MethodStreetLandmark || r0.Centroid.Lat != 1.25 {
		t.Fatalf("target 0 record %+v", r0)
	}
	if r0.RadiusKm <= 0 {
		t.Fatal("street-level merge dropped the confidence radius")
	}
	r1, _ := d.Find(c.Targets[1].Addr)
	if r1.Method != MethodStreetCBG || r1.Centroid.Lat != -3 {
		t.Fatalf("target 1 record %+v", r1)
	}
}

func TestMethodStrings(t *testing.T) {
	want := map[Method]string{
		MethodReported:       "reported",
		MethodShortestPing:   "shortest-ping",
		MethodCBG:            "cbg",
		MethodStreetCBG:      "street-cbg",
		MethodStreetLandmark: "street-landmark",
		Method(200):          "method-200",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("Method(%d).String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestDecodeRejectsBadGeometry(t *testing.T) {
	hdr := Header{Version: Version, Seed: 1, Profile: "none"}
	bad := []Record{
		{Prefix: 1, Centroid: geo.Point{Lat: 95, Lon: 0}, Method: MethodCBG},
		{Prefix: 1, Centroid: geo.Point{Lat: 0, Lon: 0}, RadiusKm: math.NaN(), Method: MethodCBG},
		{Prefix: 1, Centroid: geo.Point{Lat: 0, Lon: 0}, RadiusKm: -1, Method: MethodCBG},
	}
	for i, r := range bad {
		raw := append([]byte(Magic), frame(kindHeader, encodeHeader(hdr))...)
		raw = append(raw, frame(kindRecord, encodeRecord(r))...)
		if _, err := Decode(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("bad record %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}
