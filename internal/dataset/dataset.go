// Package dataset turns a finished measurement campaign into the paper's
// end product: a publicly servable per-/24 IP geolocation dataset. Each
// record maps one /24 prefix to an estimated location, a CBG confidence
// radius (HLOC, arXiv:1706.09331, argues multi-source geolocation answers
// are unusable without one), a method tag saying which technique produced
// the estimate, and a sanitized flag recording whether the underlying
// vantage data survived the paper's §4.3 speed-of-Internet sanitization.
//
// The on-disk artifact reuses the checkpoint journal's framing style
// (DESIGN.md §3.3) because it earned its keep there:
//
//	magic "GEODSET1" (8 bytes)
//	record*            kind u8 | payloadLen u32 | crc32(kind‖payload) u32 | payload
//
// with a mandatory first header record (format version, campaign config
// hash, world seed, fault profile). Unlike a journal, a dataset file is
// written atomically and never appended to, so a torn tail is not a
// crash signature but damage: the decoder rejects it with ErrTruncated
// instead of dropping it.
package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"geoloc/internal/cbg"
	"geoloc/internal/core"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/streetlevel"
	"geoloc/internal/telemetry"
)

// Magic identifies a dataset artifact file.
const Magic = "GEODSET1"

// Version is the current dataset format version.
const Version = 1

// maxPayload bounds a single record frame so corrupt length bytes cannot
// drive a huge allocation.
const maxPayload = 1 << 20

// frameOverhead is kind (1) + payload length (4) + CRC (4).
const frameOverhead = 9

// Record kinds.
const (
	kindHeader byte = 0
	kindRecord byte = 1
)

// recordPayloadLen is the fixed encoded size of one Record payload:
// prefix u32, lat f64, lon f64, radius f64, method u8, flags u8.
const recordPayloadLen = 4 + 8 + 8 + 8 + 1 + 1

// flagSanitized marks a record whose inputs survived §4.3 sanitization.
const flagSanitized byte = 1

// Named decode failures. Callers match with errors.Is.
var (
	// ErrBadMagic: the file is not a dataset artifact.
	ErrBadMagic = errors.New("dataset: bad magic")
	// ErrBadVersion: written by an incompatible format version.
	ErrBadVersion = errors.New("dataset: unsupported format version")
	// ErrCorrupt: a frame failed its CRC or a payload is malformed.
	ErrCorrupt = errors.New("dataset: artifact corrupt")
	// ErrTruncated: the file ends mid-frame. Datasets are written
	// atomically, so unlike a checkpoint journal a torn tail is damage.
	ErrTruncated = errors.New("dataset: artifact truncated")
	// ErrNoHeader: no decodable header record at the start of the file.
	ErrNoHeader = errors.New("dataset: missing header record")
)

// Method tags which technique produced a record's estimate.
type Method uint8

// Method tags, in ascending trust-in-measurement order.
const (
	// MethodReported: no measurement backs the record; the location is
	// the platform-reported one (only unsanitized records use this).
	MethodReported Method = iota
	// MethodShortestPing: the CBG region was empty; the estimate is the
	// lowest-RTT vantage point's location.
	MethodShortestPing
	// MethodCBG: centroid of the CBG constraint intersection.
	MethodCBG
	// MethodStreetCBG: street-level pipeline that fell back to its CBG
	// tier-1 seed.
	MethodStreetCBG
	// MethodStreetLandmark: street-level landmark estimate.
	MethodStreetLandmark
	numMethods
)

// String implements fmt.Stringer with stable wire-format names.
func (m Method) String() string {
	switch m {
	case MethodReported:
		return "reported"
	case MethodShortestPing:
		return "shortest-ping"
	case MethodCBG:
		return "cbg"
	case MethodStreetCBG:
		return "street-cbg"
	case MethodStreetLandmark:
		return "street-landmark"
	default:
		return fmt.Sprintf("method-%d", uint8(m))
	}
}

// Record is one dataset row: everything a query-time consumer learns
// about addresses inside one /24.
type Record struct {
	// Prefix is the /24 the record covers.
	Prefix ipaddr.Prefix24
	// Centroid is the location estimate for the prefix.
	Centroid geo.Point
	// RadiusKm is the CBG confidence radius: the maximum distance from
	// the centroid to any sampled point of the constraint intersection.
	// Zero means no measured confidence (MethodReported records).
	RadiusKm float64
	// Method says which technique produced Centroid.
	Method Method
	// Sanitized records whether the estimate is backed by SOI-sanitized
	// measurements; unsanitized records carry untrusted reported
	// locations and must be treated accordingly by consumers.
	Sanitized bool
}

// Header identifies the campaign a dataset was compiled from.
type Header struct {
	Version    uint32
	ConfigHash uint64
	Seed       uint64
	Profile    string
}

// Dataset is a decoded (or freshly compiled) artifact. Records are sorted
// by prefix, one record per prefix.
type Dataset struct {
	Hdr     Header
	Records []Record
}

// meters holds the package's instrumentation (observational only).
var meters = struct {
	compiled *telemetry.Counter
	encodes  *telemetry.Counter
	decodes  *telemetry.Counter
	badLoads *telemetry.Counter
}{
	compiled: telemetry.Default().Counter("dataset.records_compiled"),
	encodes:  telemetry.Default().Counter("dataset.encodes"),
	decodes:  telemetry.Default().Counter("dataset.decodes"),
	badLoads: telemetry.Default().Counter("dataset.load_errors"),
}

// encodeHeader serializes a header record payload (same layout as the
// checkpoint journal header).
func encodeHeader(h Header) []byte {
	buf := make([]byte, 0, 4+8+8+2+len(h.Profile))
	buf = binary.LittleEndian.AppendUint32(buf, h.Version)
	buf = binary.LittleEndian.AppendUint64(buf, h.ConfigHash)
	buf = binary.LittleEndian.AppendUint64(buf, h.Seed)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(h.Profile)))
	return append(buf, h.Profile...)
}

// decodeHeader parses a header record payload.
func decodeHeader(payload []byte) (Header, error) {
	if len(payload) < 4+8+8+2 {
		return Header{}, fmt.Errorf("%w: header payload too short", ErrCorrupt)
	}
	h := Header{
		Version:    binary.LittleEndian.Uint32(payload[0:]),
		ConfigHash: binary.LittleEndian.Uint64(payload[4:]),
		Seed:       binary.LittleEndian.Uint64(payload[12:]),
	}
	n := int(binary.LittleEndian.Uint16(payload[20:]))
	if len(payload) != 22+n {
		return Header{}, fmt.Errorf("%w: header profile length mismatch", ErrCorrupt)
	}
	h.Profile = string(payload[22 : 22+n])
	return h, nil
}

// encodeRecord serializes one Record payload.
func encodeRecord(r Record) []byte {
	buf := make([]byte, 0, recordPayloadLen)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(r.Prefix))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Centroid.Lat))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Centroid.Lon))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.RadiusKm))
	buf = append(buf, byte(r.Method))
	var flags byte
	if r.Sanitized {
		flags |= flagSanitized
	}
	return append(buf, flags)
}

// decodeRecord parses one Record payload, validating every field a
// malicious or damaged file could abuse.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) != recordPayloadLen {
		return Record{}, fmt.Errorf("%w: record payload is %d bytes, want %d",
			ErrCorrupt, len(payload), recordPayloadLen)
	}
	r := Record{
		Prefix: ipaddr.Prefix24(binary.LittleEndian.Uint32(payload[0:])),
		Centroid: geo.Point{
			Lat: math.Float64frombits(binary.LittleEndian.Uint64(payload[4:])),
			Lon: math.Float64frombits(binary.LittleEndian.Uint64(payload[12:])),
		},
		RadiusKm: math.Float64frombits(binary.LittleEndian.Uint64(payload[20:])),
	}
	m := payload[28]
	flags := payload[29]
	if uint32(r.Prefix) > 0x00FF_FFFF {
		return Record{}, fmt.Errorf("%w: prefix value %#x exceeds 24 bits", ErrCorrupt, uint32(r.Prefix))
	}
	if Method(m) >= numMethods {
		return Record{}, fmt.Errorf("%w: unknown method tag %d", ErrCorrupt, m)
	}
	if flags&^flagSanitized != 0 {
		return Record{}, fmt.Errorf("%w: unknown flag bits %#x", ErrCorrupt, flags)
	}
	if !r.Centroid.Valid() || math.IsNaN(r.RadiusKm) || math.IsInf(r.RadiusKm, 0) || r.RadiusKm < 0 {
		return Record{}, fmt.Errorf("%w: record geometry out of range", ErrCorrupt)
	}
	r.Method = Method(m)
	r.Sanitized = flags&flagSanitized != 0
	return r, nil
}

// frame serializes one frame (identical layout to checkpoint frames).
func frame(kind byte, payload []byte) []byte {
	buf := make([]byte, frameOverhead+len(payload))
	buf[0] = kind
	binary.LittleEndian.PutUint32(buf[1:], uint32(len(payload)))
	crc := crc32.NewIEEE()
	crc.Write(buf[:1])
	crc.Write(payload)
	binary.LittleEndian.PutUint32(buf[5:], crc.Sum32())
	copy(buf[frameOverhead:], payload)
	return buf
}

// Encode serializes the dataset. Records must already be sorted by
// prefix; Compile and Decode both guarantee it.
func (d *Dataset) Encode() []byte {
	hdr := d.Hdr
	hdr.Version = Version
	out := make([]byte, 0, len(Magic)+len(d.Records)*(frameOverhead+recordPayloadLen)+64)
	out = append(out, Magic...)
	out = append(out, frame(kindHeader, encodeHeader(hdr))...)
	for _, r := range d.Records {
		out = append(out, frame(kindRecord, encodeRecord(r))...)
	}
	meters.encodes.Inc()
	return out
}

// Decode parses a dataset image. Every failure is one of the package's
// named errors; arbitrary input never panics (FuzzDatasetDecoder enforces
// both). Beyond framing, Decode validates the artifact's invariants:
// records strictly sorted by prefix (no duplicates) and well-formed
// geometry — a file violating them was not produced by Encode.
func Decode(data []byte) (*Dataset, error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	d := &Dataset{}
	off := len(Magic)
	first := true
	for off < len(data) {
		rest := len(data) - off
		if rest < frameOverhead {
			return nil, fmt.Errorf("%w: %d trailing bytes at offset %d", ErrTruncated, rest, off)
		}
		kind := data[off]
		plen := int(binary.LittleEndian.Uint32(data[off+1:]))
		want := binary.LittleEndian.Uint32(data[off+5:])
		if plen > maxPayload {
			return nil, fmt.Errorf("%w: frame at offset %d claims %d-byte payload", ErrCorrupt, off, plen)
		}
		if rest < frameOverhead+plen {
			return nil, fmt.Errorf("%w: frame at offset %d runs past EOF", ErrTruncated, off)
		}
		payload := data[off+frameOverhead : off+frameOverhead+plen]
		crc := crc32.NewIEEE()
		crc.Write(data[off : off+1])
		crc.Write(payload)
		if crc.Sum32() != want {
			return nil, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
		}
		off += frameOverhead + plen
		if first {
			first = false
			if kind != kindHeader {
				return nil, fmt.Errorf("%w: first record has kind %d", ErrNoHeader, kind)
			}
			hdr, err := decodeHeader(payload)
			if err != nil {
				return nil, err
			}
			if hdr.Version != Version {
				return nil, fmt.Errorf("%w: artifact version %d, decoder version %d",
					ErrBadVersion, hdr.Version, Version)
			}
			d.Hdr = hdr
			continue
		}
		switch kind {
		case kindRecord:
			r, err := decodeRecord(payload)
			if err != nil {
				return nil, err
			}
			if n := len(d.Records); n > 0 && d.Records[n-1].Prefix >= r.Prefix {
				return nil, fmt.Errorf("%w: records not strictly sorted at offset %d", ErrCorrupt, off)
			}
			d.Records = append(d.Records, r)
		case kindHeader:
			return nil, fmt.Errorf("%w: duplicate header at offset %d", ErrCorrupt, off)
		default:
			return nil, fmt.Errorf("%w: unknown record kind %d at offset %d", ErrCorrupt, kind, off)
		}
	}
	if first {
		return nil, ErrNoHeader
	}
	meters.decodes.Inc()
	return d, nil
}

// Write stores the dataset atomically: encode to a temporary file in the
// destination directory, fsync, rename. A crash leaves either the old
// artifact or the new one, never a torn hybrid — which is why the decoder
// can treat truncation as damage.
func (d *Dataset) Write(path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(d.Encode()); err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// Load reads and decodes an artifact file.
func Load(path string) (*Dataset, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d, err := Decode(data)
	if err != nil {
		meters.badLoads.Inc()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// Find returns the record covering the /24 of addr (records are sorted,
// so this is a binary search), or false. It is the serving lookup for
// in-RAM datasets (compiled in-process or loaded from GEODSET1) and the
// reference every other read path is tested against.
func (d *Dataset) Find(addr ipaddr.Addr) (Record, bool) {
	p := ipaddr.Prefix24Of(addr)
	i := sort.Search(len(d.Records), func(i int) bool { return d.Records[i].Prefix >= p })
	if i < len(d.Records) && d.Records[i].Prefix == p {
		return d.Records[i], true
	}
	return Record{}, false
}

// Options tunes Compile.
type Options struct {
	// SpeedKmPerMs is the CBG propagation-speed constant; 0 means the
	// conservative geo.TwoThirdsC the paper's replication uses.
	SpeedKmPerMs float64
	// IncludeUnsanitized adds records for the anchors §4.3 removed, with
	// Sanitized=false, MethodReported and their (untrusted) reported
	// location — the dataset then documents which prefixes are known but
	// not measurement-backed.
	IncludeUnsanitized bool
}

// Compile builds the dataset from a finished campaign: one record per
// target /24 with the CBG centroid and confidence radius over the full
// vantage-point set. The campaign's target matrix is built on demand
// (idempotent). Everything is deterministic given the campaign's seed, so
// recompiling a same-config campaign yields a bit-identical artifact —
// the golden regression test depends on that.
//
// Compile is the in-RAM compilation path and the oracle the external-merge
// compiler (CompileExternal, stream.go) is pinned against bit for bit.
func Compile(c *core.Campaign, opts Options) *Dataset {
	defer telemetry.Default().StartSpan("phase.dataset").End()
	return CompileFromSource(NewCampaignSource(c), CampaignHeader(c), opts, CampaignExtras(c, opts))
}

// CampaignHeader builds the artifact header identifying a campaign.
func CampaignHeader(c *core.Campaign) Header {
	profile := "raw"
	if p := c.FaultProfile(); p != nil {
		profile = p.Name
	}
	return Header{
		Version:    Version,
		ConfigHash: c.ConfigHash(),
		Seed:       c.W.Cfg.Seed,
		Profile:    profile,
	}
}

// CampaignExtras returns the non-measured records a campaign contributes
// beyond its targets: the anchors §4.3 removed, when Options asks for
// them. They compete with target records in dedupe exactly as they did
// when Compile appended them inline — after all targets, in removal order.
func CampaignExtras(c *core.Campaign, opts Options) []Record {
	if !opts.IncludeUnsanitized {
		return nil
	}
	extras := make([]Record, 0, len(c.RemovedAnchors))
	for _, id := range c.RemovedAnchors {
		h := c.W.Host(id)
		extras = append(extras, Record{
			Prefix:   ipaddr.Prefix24Of(h.Addr),
			Centroid: h.Reported,
			Method:   MethodReported,
		})
	}
	return extras
}

// compileRecord estimates one target from its measurements: CBG centroid
// plus confidence radius when the constraint intersection is non-empty,
// shortest-ping fallback otherwise.
//
// The confidence radius is an analytic upper bound, not a sampled one:
// any point x inside constraint circle i satisfies dist(centroid, x) <=
// dist(centroid, center_i) + radius_i, so the minimum of that quantity
// over all constraints bounds how far anything in the intersection — the
// true location included, since RTT-derived distances are upper bounds at
// a conservative speed constant — can sit from the centroid. A sampled
// maximum would be tighter but loses the coverage guarantee to grid
// resolution.
// The constraint sampling runs through geo.Sampler — bit-exact with the
// Region.Reduced → SamplePoints → Centroid chain it replaced (the golden
// digests pin this) but allocation-free with hoisted trigonometry, which
// is what makes million-target compiles tractable.
func compileRecord(ms []cbg.Measurement, speed float64) (Record, bool) {
	sm := compileSamplers.Get().(*geo.Sampler)
	defer compileSamplers.Put(sm)
	sm.Reset()
	tight := math.Inf(1)
	for _, m := range ms {
		if m.RTTMs < 0 || math.IsNaN(m.RTTMs) {
			continue
		}
		r := geo.RTTToDistanceKm(m.RTTMs, speed)
		sm.Add(geo.Circle{Center: m.VP, RadiusKm: r})
		if r < tight {
			tight = r
		}
	}
	if centroid, ok := sm.Centroid(geo.DefaultSampleRings, geo.DefaultSampleBearings); ok {
		radius := math.Inf(1)
		sm.Kept(func(c geo.Circle) {
			// Min over the surviving set; survivor order (which the sampler
			// scrambles) cannot change the value.
			if bound := geo.Distance(centroid, c.Center) + c.RadiusKm; bound < radius {
				radius = bound
			}
		})
		return Record{Centroid: centroid, RadiusKm: radius, Method: MethodCBG}, true
	}
	est, err := cbg.ShortestPing(ms)
	if err != nil {
		return Record{}, false
	}
	if math.IsInf(tight, 1) {
		tight = 0 // no responsive VP: same zero Tightest reported on an empty region
	}
	return Record{Centroid: est, RadiusKm: tight, Method: MethodShortestPing}, true
}

// compileSamplers pools per-record sampling scratch across compile
// workers; a sampler is reset before use, so pooling never influences
// results.
var compileSamplers = sync.Pool{New: func() any { return new(geo.Sampler) }}

// sortRecords sorts by prefix and resolves duplicate prefixes, preferring
// sanitized records, then smaller confidence radii. The sort is stable so
// exact ties (e.g. two removed anchors sharing a /24) resolve to the
// earliest record in input order — the same rule the external-merge
// compiler applies across spill runs, which is what keeps the two paths
// bit-identical.
func sortRecords(d *Dataset) {
	sort.SliceStable(d.Records, func(i, j int) bool { return d.Records[i].Prefix < d.Records[j].Prefix })
	out := d.Records[:0]
	for _, r := range d.Records {
		if n := len(out); n > 0 && out[n-1].Prefix == r.Prefix {
			if better(r, out[n-1]) {
				out[n-1] = r
			}
			continue
		}
		out = append(out, r)
	}
	d.Records = out
}

// better ranks duplicate-prefix records: sanitized beats unsanitized,
// then the tighter confidence radius wins.
func better(a, b Record) bool {
	if a.Sanitized != b.Sanitized {
		return a.Sanitized
	}
	return a.RadiusKm < b.RadiusKm
}

// MergeStreetLevel overlays street-level results onto compiled records:
// the estimate for the target's prefix is replaced by the street-level
// one and the method tag upgraded (MethodStreetLandmark when a landmark
// was selected, MethodStreetCBG for the tier-1 fallback). The CBG
// confidence radius is kept — the constraint region still bounds the
// target; street level refines the point inside it. Returns how many
// records were updated.
func MergeStreetLevel(d *Dataset, c *core.Campaign, results []streetlevel.Result) int {
	byPrefix := make(map[ipaddr.Prefix24]int, len(d.Records))
	for i, r := range d.Records {
		byPrefix[r.Prefix] = i
	}
	updated := 0
	for _, res := range results {
		if res.Target < 0 || res.Target >= len(c.Targets) {
			continue
		}
		i, ok := byPrefix[ipaddr.Prefix24Of(c.Targets[res.Target].Addr)]
		if !ok || !d.Records[i].Sanitized {
			continue
		}
		d.Records[i].Centroid = res.Estimate
		if res.Method == "landmark" {
			d.Records[i].Method = MethodStreetLandmark
		} else {
			d.Records[i].Method = MethodStreetCBG
		}
		updated++
	}
	return updated
}
