// GEODSET2: the block-indexed artifact variant (DESIGN.md §3.9). The
// flat GEODSET1 format must be decoded whole, so serving it costs RAM
// proportional to the dataset. GEODSET2 keeps the same record payloads
// and frame discipline but groups records into fixed-size sorted blocks
// with a trailing per-block key index and a fixed-size footer:
//
//	magic "GEODSET2" (8 bytes)
//	header frame      kind 0 | payloadLen u32 | crc32 u32 | header payload (Version=2)
//	block frame*      kind 2 | ...           | count u16 | count × record payload
//	index frame       kind 3 | ...           | per block: first u32 | last u32 | count u32 | off u64 | plen u32
//	footer (28 bytes) indexOff u64 | records u64 | crc32(indexOff‖records) u32 | "GDS2TAIL"
//
// A reader maps the file, validates the footer and loads the index, and
// thereafter touches only the blocks a lookup lands in — resident memory
// is the pages those blocks occupy, at any artifact size. Like GEODSET1 the file is written atomically
// (tmp + fsync + rename), so truncation is damage, not a crash tail.
package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"sync/atomic"

	"geoloc/internal/ipaddr"
)

// Magic2 identifies a block-indexed dataset artifact.
const Magic2 = "GEODSET2"

// Version2 is the GEODSET2 format version, carried in the same header
// payload layout as GEODSET1.
const Version2 = 2

// GEODSET2 frame kinds (kindHeader is shared with GEODSET1).
const (
	kindBlock byte = 2
	kindIndex byte = 3
)

// DefaultBlockSize is the records-per-block default: 256 records ≈ 7.7 KB
// per block frame, a few disk pages.
const DefaultBlockSize = 256

// maxBlockRecords bounds a block so corrupt counts cannot drive huge
// allocations; the writer enforces it, the reader rejects beyond it.
const maxBlockRecords = 4096

// maxIndexPayload bounds the index frame. 24 bytes per block covers a
// full-IPv4 artifact (2^24 /24s at minimum block size) with room over.
const maxIndexPayload = 64 << 20

// footerLen is the fixed footer: indexOff u64 | records u64 | crc32 u32 |
// tail magic (8).
const footerLen = 28

// tailMagic ends every GEODSET2 file; its absence is the fastest
// possible "not a (complete) GEODSET2" signal.
const tailMagic = "GDS2TAIL"

// indexEntryLen is the per-block index entry size.
const indexEntryLen = 4 + 4 + 4 + 8 + 4

// blockMeta is one decoded index entry.
type blockMeta struct {
	first, last ipaddr.Prefix24
	count       uint32
	off         int64
	plen        uint32
}

// Writer2 streams records into a GEODSET2 file in ascending prefix
// order. It holds one block plus the (small) index in memory, so writing
// a full-IPv4-scale artifact is O(block). The file appears atomically at
// path on Finish; Abort (or a crash) leaves only a .tmp.
type Writer2 struct {
	path, tmp string
	f         *os.File
	w         *bufio.Writer
	blockSize int
	hdr       Header
	cur       []Record
	index     []blockMeta
	off       int64
	records   uint64
	last      ipaddr.Prefix24
	finished  bool
}

// NewWriter2 starts a GEODSET2 artifact at path. blockSize <= 0 means
// DefaultBlockSize; larger than maxBlockRecords is rejected.
func NewWriter2(path string, hdr Header, blockSize int) (*Writer2, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	if blockSize > maxBlockRecords {
		return nil, fmt.Errorf("dataset: block size %d exceeds limit %d", blockSize, maxBlockRecords)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	hdr.Version = Version2
	w := &Writer2{
		path: path, tmp: tmp, f: f, w: bufio.NewWriterSize(f, 64<<10),
		blockSize: blockSize, hdr: hdr, cur: make([]Record, 0, blockSize),
	}
	if _, err := w.w.WriteString(Magic2); err != nil {
		w.Abort()
		return nil, err
	}
	hb := frame(kindHeader, encodeHeader(hdr))
	if _, err := w.w.Write(hb); err != nil {
		w.Abort()
		return nil, err
	}
	w.off = int64(len(Magic2) + len(hb))
	return w, nil
}

// Add appends one record; prefixes must be strictly ascending.
func (w *Writer2) Add(r Record) error {
	if w.records > 0 && r.Prefix <= w.last {
		return fmt.Errorf("dataset: records out of order (%s after %s)", r.Prefix, w.last)
	}
	w.cur = append(w.cur, r)
	w.last = r.Prefix
	w.records++
	if len(w.cur) == w.blockSize {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer2) flushBlock() error {
	if len(w.cur) == 0 {
		return nil
	}
	payload := make([]byte, 0, 2+len(w.cur)*recordPayloadLen)
	payload = binary.LittleEndian.AppendUint16(payload, uint16(len(w.cur)))
	for _, r := range w.cur {
		payload = append(payload, encodeRecord(r)...)
	}
	fb := frame(kindBlock, payload)
	if _, err := w.w.Write(fb); err != nil {
		return err
	}
	w.index = append(w.index, blockMeta{
		first: w.cur[0].Prefix,
		last:  w.cur[len(w.cur)-1].Prefix,
		count: uint32(len(w.cur)),
		off:   w.off,
		plen:  uint32(len(payload)),
	})
	w.off += int64(len(fb))
	w.cur = w.cur[:0]
	return nil
}

// Finish flushes the last block, writes the index and footer, fsyncs,
// and atomically renames the file into place. Returns the final size.
func (w *Writer2) Finish() (int64, error) {
	if err := w.flushBlock(); err != nil {
		w.Abort()
		return 0, err
	}
	indexOff := w.off
	payload := make([]byte, 0, len(w.index)*indexEntryLen)
	for _, b := range w.index {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(b.first))
		payload = binary.LittleEndian.AppendUint32(payload, uint32(b.last))
		payload = binary.LittleEndian.AppendUint32(payload, b.count)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(b.off))
		payload = binary.LittleEndian.AppendUint32(payload, b.plen)
	}
	fb := frame(kindIndex, payload)
	if _, err := w.w.Write(fb); err != nil {
		w.Abort()
		return 0, err
	}
	w.off += int64(len(fb))
	footer := make([]byte, 0, footerLen)
	footer = binary.LittleEndian.AppendUint64(footer, uint64(indexOff))
	footer = binary.LittleEndian.AppendUint64(footer, w.records)
	footer = binary.LittleEndian.AppendUint32(footer, crc32.ChecksumIEEE(footer[:16]))
	footer = append(footer, tailMagic...)
	if _, err := w.w.Write(footer); err != nil {
		w.Abort()
		return 0, err
	}
	w.off += footerLen
	if err := w.w.Flush(); err != nil {
		w.Abort()
		return 0, err
	}
	if err := w.f.Sync(); err != nil {
		w.Abort()
		return 0, err
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.tmp)
		return 0, err
	}
	w.finished = true
	if err := os.Rename(w.tmp, w.path); err != nil {
		return 0, err
	}
	if dir, err := os.Open(filepath.Dir(w.path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return w.off, nil
}

// Abort discards the partial file. Safe after Finish (no-op).
func (w *Writer2) Abort() {
	if w.finished {
		return
	}
	w.f.Close()
	os.Remove(w.tmp)
	w.finished = true
}

// NumBlocks reports how many blocks have been flushed so far.
func (w *Writer2) NumBlocks() int { return len(w.index) }

// Reader2 serves lookups out of a GEODSET2 artifact held as one byte
// slice: a read-only memory mapping of the file where the platform
// supports it, the file read into RAM where it does not. Both run the
// same code. A block is a sub-slice of those bytes — no copy, no cache,
// no lock; the page cache does the caching — and each block's CRC and
// sort invariants are verified once, on first touch, through a
// per-block atomic bitmap. Safe for concurrent use.
//
// Fault guard: a mapping can go bad under the reader when the artifact
// is truncated in place (as `cp new live` does before it writes), and
// touching a page past the new end of file raises SIGBUS. Every read of
// the bytes (open-time validation, Lookup, All) therefore runs with
// debug.SetPanicOnFault and reports a recovered fault as ErrCorrupt, so
// a damaged artifact costs an error, never the process.
//
// Lifecycle: a reader is born with one owner reference; Close drops it.
// In-flight requests that must outlive a hot-swap pin the reader
// (TryPin/Unpin); the mapping is released only when the last reference
// drops, so a swapped-out mapping stays valid until the last pinned
// request drains — generation-pinned munmap.
type Reader2 struct {
	data    []byte
	mapped  bool // data is a mapping, released with munmap
	hdr     Header
	blocks  []blockMeta
	records int

	// verified is the per-block CRC-verified-on-first-touch bitmap.
	verified []atomic.Uint32

	// refs counts the owner reference plus every in-flight pin; closed
	// makes Close idempotent.
	refs   atomic.Int64
	closed atomic.Bool
}

// Open2 opens a GEODSET2 artifact file. It maps the file read-only;
// where mmap is unsupported or fails it reads the file into RAM
// instead. Footer, index and header are validated eagerly, blocks on
// first touch.
func Open2(path string) (*Reader2, error) {
	data, err := mmapFile(path)
	mapped := err == nil
	if !mapped {
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
	}
	d, err := NewReader2(data)
	if err != nil {
		if mapped {
			munmapFile(data)
		}
		meters.badLoads.Inc()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	d.mapped = mapped
	return d, nil
}

// NewReader2 builds a reader over a whole artifact image (the fuzz
// harness hands it arbitrary bytes). Every validation failure is one of
// the package's named errors; arbitrary input never panics. The reader
// keeps data and reads it for its whole life.
func NewReader2(data []byte) (_ *Reader2, err error) {
	defer catchFault(debug.SetPanicOnFault(true), &err)
	size := int64(len(data))
	if size < int64(len(Magic2)) || string(data[:len(Magic2)]) != Magic2 {
		return nil, ErrBadMagic
	}
	if size < int64(len(Magic2))+frameOverhead+footerLen {
		return nil, fmt.Errorf("%w: %d bytes is too small for a GEODSET2 file", ErrTruncated, size)
	}
	footer := data[size-footerLen:]
	if string(footer[20:]) != tailMagic {
		return nil, fmt.Errorf("%w: footer tail magic missing", ErrTruncated)
	}
	if crc32.ChecksumIEEE(footer[:16]) != binary.LittleEndian.Uint32(footer[16:]) {
		return nil, fmt.Errorf("%w: footer CRC mismatch", ErrCorrupt)
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	records := binary.LittleEndian.Uint64(footer[8:])
	if indexOff < int64(len(Magic2))+frameOverhead || indexOff > size-footerLen-frameOverhead {
		return nil, fmt.Errorf("%w: index offset %d out of range", ErrCorrupt, indexOff)
	}

	d := &Reader2{data: data}
	d.refs.Store(1)

	// Header frame right after the magic.
	kind, payload, err := frameAt(data, int64(len(Magic2)), size, maxPayload)
	if err != nil {
		return nil, err
	}
	if kind != kindHeader {
		return nil, fmt.Errorf("%w: first frame has kind %d", ErrNoHeader, kind)
	}
	hdr, err := decodeHeader(payload)
	if err != nil {
		return nil, err
	}
	if hdr.Version != Version2 {
		return nil, fmt.Errorf("%w: artifact version %d, GEODSET2 decoder version %d",
			ErrBadVersion, hdr.Version, Version2)
	}
	d.hdr = hdr

	// Index frame at the footer's offset.
	kind, payload, err = frameAt(data, indexOff, size-footerLen, maxIndexPayload)
	if err != nil {
		return nil, err
	}
	if kind != kindIndex {
		return nil, fmt.Errorf("%w: frame at index offset has kind %d", ErrCorrupt, kind)
	}
	if len(payload)%indexEntryLen != 0 {
		return nil, fmt.Errorf("%w: index payload length %d not a multiple of %d",
			ErrCorrupt, len(payload), indexEntryLen)
	}
	n := len(payload) / indexEntryLen
	d.blocks = make([]blockMeta, n)
	total := uint64(0)
	minOff := int64(len(Magic2)) + frameOverhead
	for i := range d.blocks {
		e := payload[i*indexEntryLen:]
		b := blockMeta{
			first: ipaddr.Prefix24(binary.LittleEndian.Uint32(e[0:])),
			last:  ipaddr.Prefix24(binary.LittleEndian.Uint32(e[4:])),
			count: binary.LittleEndian.Uint32(e[8:]),
			off:   int64(binary.LittleEndian.Uint64(e[12:])),
			plen:  binary.LittleEndian.Uint32(e[20:]),
		}
		switch {
		case b.count == 0 || b.count > maxBlockRecords:
			return nil, fmt.Errorf("%w: block %d claims %d records", ErrCorrupt, i, b.count)
		case uint32(b.first) > 0x00FF_FFFF || uint32(b.last) > 0x00FF_FFFF || b.first > b.last:
			return nil, fmt.Errorf("%w: block %d key range invalid", ErrCorrupt, i)
		case int(b.plen) != 2+int(b.count)*recordPayloadLen:
			return nil, fmt.Errorf("%w: block %d payload length %d does not match count %d",
				ErrCorrupt, i, b.plen, b.count)
		case b.off < minOff || b.off+frameOverhead+int64(b.plen) > indexOff:
			return nil, fmt.Errorf("%w: block %d offset out of range", ErrCorrupt, i)
		case i > 0 && b.first <= d.blocks[i-1].last:
			return nil, fmt.Errorf("%w: block %d keys overlap block %d", ErrCorrupt, i, i-1)
		case i > 0 && b.off < d.blocks[i-1].off+frameOverhead+int64(d.blocks[i-1].plen):
			return nil, fmt.Errorf("%w: block %d overlaps block %d on disk", ErrCorrupt, i, i-1)
		}
		d.blocks[i] = b
		total += uint64(b.count)
	}
	if total != records {
		return nil, fmt.Errorf("%w: footer says %d records, index sums to %d", ErrCorrupt, records, total)
	}
	d.records = int(records)
	d.verified = make([]atomic.Uint32, (n+31)/32)
	meters.decodes.Inc()
	return d, nil
}

// frameAt CRC-checks the frame at off and returns its payload as a
// slice of data; limit is the first byte the frame must not extend past.
func frameAt(data []byte, off, limit int64, maxLen int) (byte, []byte, error) {
	if off+frameOverhead > limit {
		return 0, nil, fmt.Errorf("%w: frame at offset %d runs past EOF", ErrTruncated, off)
	}
	fh := data[off : off+frameOverhead]
	kind := fh[0]
	plen := int(binary.LittleEndian.Uint32(fh[1:]))
	if plen > maxLen {
		return 0, nil, fmt.Errorf("%w: frame at offset %d claims %d-byte payload", ErrCorrupt, off, plen)
	}
	if off+frameOverhead+int64(plen) > limit {
		return 0, nil, fmt.Errorf("%w: frame at offset %d runs past EOF", ErrTruncated, off)
	}
	payload := data[off+frameOverhead : off+frameOverhead+int64(plen)]
	if crc32.Update(crc32.Update(0, ieeeTable, fh[:1]), ieeeTable, payload) != binary.LittleEndian.Uint32(fh[5:]) {
		return 0, nil, fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, off)
	}
	return kind, payload, nil
}

// catchFault is deferred, with the SetPanicOnFault value it replaced,
// by every function that reads the artifact bytes. It restores that
// value and turns a recovered memory fault — a mapped page that vanished
// because the file was truncated in place — into ErrCorrupt. Any other panic is a bug and keeps unwinding.
func catchFault(prev bool, err *error) {
	debug.SetPanicOnFault(prev)
	if r := recover(); r != nil {
		f, ok := r.(interface{ Addr() uintptr })
		if !ok {
			panic(r)
		}
		*err = fmt.Errorf("%w: memory fault at %#x reading the artifact (was it truncated in place?)",
			ErrCorrupt, f.Addr())
	}
}

// Header returns the artifact's provenance header.
func (d *Reader2) Header() Header { return d.hdr }

// NumRecords reports the artifact's record count (from the footer,
// validated against the index).
func (d *Reader2) NumRecords() int { return d.records }

// NumBlocks reports the number of blocks.
func (d *Reader2) NumBlocks() int { return len(d.blocks) }

// Range returns the first and last prefixes the block index covers
// (both zero for an empty artifact).
func (d *Reader2) Range() (lo, hi ipaddr.Prefix24) {
	if len(d.blocks) == 0 {
		return 0, 0
	}
	return d.blocks[0].first, d.blocks[len(d.blocks)-1].last
}

// TryPin takes a reference on the reader if it is still alive: the CAS
// loop increments refs only while they are positive, so a pin can never
// resurrect a reader whose last reference already dropped. Callers that
// lose this race must re-fetch the current artifact and retry.
func (d *Reader2) TryPin() bool {
	for {
		n := d.refs.Load()
		if n <= 0 {
			return false
		}
		if d.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// Unpin drops a TryPin reference; the last reference out releases the
// mapping.
func (d *Reader2) Unpin() { d.release() }

// Close drops the owner reference taken at open. Idempotent. The
// mapping is released only when every pinned request has unpinned — a
// swapped-out reader stays valid until the last in-flight lookup
// drains.
func (d *Reader2) Close() error {
	if d.closed.CompareAndSwap(false, true) {
		d.release()
	}
	return nil
}

// release drops one reference and tears the reader down at zero.
func (d *Reader2) release() {
	if d.refs.Add(-1) != 0 {
		return
	}
	if d.mapped {
		munmapFile(d.data)
	}
	d.data = nil
}

// Lookup returns the record for exactly prefix p, touching at most one
// block. After the block's first touch it is allocation-free: the block
// and record binary searches run directly over the bytes and only the
// matching record is decoded.
func (d *Reader2) Lookup(p ipaddr.Prefix24) (_ Record, _ bool, err error) {
	// Last block whose first key is <= p.
	i := sort.Search(len(d.blocks), func(i int) bool { return d.blocks[i].first > p }) - 1
	if i < 0 || p > d.blocks[i].last {
		return Record{}, false, nil
	}
	defer catchFault(debug.SetPanicOnFault(true), &err)
	payload, err := d.payload(i)
	if err != nil {
		return Record{}, false, err
	}
	n := int(d.blocks[i].count)
	lo, hi := 0, n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		key := ipaddr.Prefix24(binary.LittleEndian.Uint32(payload[2+mid*recordPayloadLen:]))
		if key < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= n {
		return Record{}, false, nil
	}
	rp := payload[2+lo*recordPayloadLen : 2+(lo+1)*recordPayloadLen]
	if ipaddr.Prefix24(binary.LittleEndian.Uint32(rp)) != p {
		return Record{}, false, nil
	}
	r, err := decodeRecord(rp)
	if err != nil {
		return Record{}, false, err
	}
	return r, true, nil
}

// ieeeTable backs the allocation-free CRCs of frameAt and verifyBlock.
var ieeeTable = crc32.MakeTable(crc32.IEEE)

// payload returns block i's frame payload as a slice of the artifact
// bytes, verifying the frame CRC and every record's decode and sort
// invariants once per block: the first toucher pays the full check,
// every later reader sees the set bit and slices straight in. A corrupt
// block is therefore reported with the package's named errors on every
// touch, never answered from. Callers hold the fault guard.
func (d *Reader2) payload(i int) ([]byte, error) {
	b := d.blocks[i]
	payload := d.data[b.off+frameOverhead : b.off+frameOverhead+int64(b.plen)]
	w := &d.verified[i>>5]
	bit := uint32(1) << (uint(i) & 31)
	if w.Load()&bit != 0 {
		return payload, nil
	}
	if err := d.verifyBlock(i, payload); err != nil {
		return nil, err
	}
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return payload, nil
		}
	}
}

// verifyBlock checks block i's frame header, CRC, record count, record
// decode, strict key order and key range against its index entry.
func (d *Reader2) verifyBlock(i int, payload []byte) error {
	b := d.blocks[i]
	fh := d.data[b.off : b.off+frameOverhead]
	if fh[0] != kindBlock {
		return fmt.Errorf("%w: block %d frame has kind %d", ErrCorrupt, i, fh[0])
	}
	if int(binary.LittleEndian.Uint32(fh[1:])) != len(payload) {
		return fmt.Errorf("%w: block %d payload size mismatch", ErrCorrupt, i)
	}
	crc := crc32.Update(crc32.Update(0, ieeeTable, fh[:1]), ieeeTable, payload)
	if crc != binary.LittleEndian.Uint32(fh[5:]) {
		return fmt.Errorf("%w: CRC mismatch at offset %d", ErrCorrupt, b.off)
	}
	count := int(binary.LittleEndian.Uint16(payload))
	if count != int(b.count) {
		return fmt.Errorf("%w: block %d holds %d records, index says %d", ErrCorrupt, i, count, b.count)
	}
	var prev ipaddr.Prefix24
	for k := 0; k < count; k++ {
		r, err := decodeRecord(payload[2+k*recordPayloadLen : 2+(k+1)*recordPayloadLen])
		if err != nil {
			return err
		}
		if k > 0 && prev >= r.Prefix {
			return fmt.Errorf("%w: block %d records not strictly sorted at %d", ErrCorrupt, i, k)
		}
		prev = r.Prefix
	}
	first := ipaddr.Prefix24(binary.LittleEndian.Uint32(payload[2:]))
	last := ipaddr.Prefix24(binary.LittleEndian.Uint32(payload[2+(count-1)*recordPayloadLen:]))
	if first != b.first || last != b.last {
		return fmt.Errorf("%w: block %d key range does not match its index entry", ErrCorrupt, i)
	}
	return nil
}

// Find returns the record covering addr's /24, mirroring Dataset.Find.
func (d *Reader2) Find(addr ipaddr.Addr) (Record, bool, error) {
	return d.Lookup(ipaddr.Prefix24Of(addr))
}

// All streams every record in prefix order through fn, stopping at the
// first error fn (or a damaged block) returns. Each block is decoded
// under the fault guard before fn sees any of it, so fn itself runs
// unguarded and its panics propagate untouched.
func (d *Reader2) All(fn func(Record) error) error {
	buf := make([]Record, 0, DefaultBlockSize)
	for i := range d.blocks {
		recs, err := d.decodeBlock(i, buf[:0])
		if err != nil {
			return err
		}
		for _, r := range recs {
			if err := fn(r); err != nil {
				return err
			}
		}
		buf = recs
	}
	return nil
}

// decodeBlock appends block i's records to buf.
func (d *Reader2) decodeBlock(i int, buf []Record) (_ []Record, err error) {
	defer catchFault(debug.SetPanicOnFault(true), &err)
	payload, err := d.payload(i)
	if err != nil {
		return nil, err
	}
	for k := 0; k < int(d.blocks[i].count); k++ {
		r, err := decodeRecord(payload[2+k*recordPayloadLen : 2+(k+1)*recordPayloadLen])
		if err != nil {
			return nil, err
		}
		buf = append(buf, r)
	}
	return buf, nil
}

// Materialize decodes the whole artifact into an in-RAM Dataset — for
// client-side tools (the geobench baseline oracle) that want slice
// access and don't care about the block reader's memory bound.
func (d *Reader2) Materialize() (*Dataset, error) {
	ds := &Dataset{Hdr: d.hdr, Records: make([]Record, 0, d.records)}
	if err := d.All(func(r Record) error {
		ds.Records = append(ds.Records, r)
		return nil
	}); err != nil {
		return nil, err
	}
	return ds, nil
}

// LoadAny loads an artifact of either format fully into memory: a
// GEODSET1 is decoded as Load does, a GEODSET2 is materialized block by
// block. Servers wanting the bounded-memory path should use Open2
// directly; this is for tools.
func LoadAny(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		meters.badLoads.Inc()
		return nil, err
	}
	var m [8]byte
	_, rerr := io.ReadFull(f, m[:])
	f.Close()
	if rerr == nil && string(m[:]) == Magic2 {
		r2, err := Open2(path)
		if err != nil {
			return nil, err
		}
		defer r2.Close()
		return r2.Materialize()
	}
	return Load(path)
}
