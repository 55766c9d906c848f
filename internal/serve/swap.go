// Artifact hot-swap: the mechanism that lets geoserve publish a new
// GEODSET artifact under live traffic without dropping a request.
//
// The serving state is an immutable artifact snapshot published through
// an atomic pointer. A request captures the pointer once on entry and
// answers entirely from that snapshot, so a swap mid-request is
// invisible: in-flight requests finish on the old snapshot while new
// requests see the new one. Swaps are serialized by a mutex (last writer
// wins would otherwise race the generation counter), and a reload that
// fails to decode leaves the old artifact serving — rollback is the
// absence of a publish.
//
// Two artifact formats serve behind the same snapshot type, each with
// exactly one lookup: a decoded in-RAM dataset (GEODSET1 artifacts and
// datasets compiled in-process) answered by Dataset.Find, and a
// block-indexed GEODSET2 answered by dataset.Reader2 straight out of a
// read-only mapping of the file (DESIGN.md §3.9, §3.10), which is how a
// full-IPv4-scale artifact serves with resident memory proportional to
// the blocks it touches. Reload sniffs the file's magic and picks the
// right opener. No cache sits in front of either lookup.
//
// A GEODSET2 reader owns a mapping, so a swapped-out reader is
// reference-counted: each in-flight request pins the snapshot it
// captured (Artifact.pin/release), the swap drops the owner reference,
// and the last pin out actually unmaps. A swap under zero load unmaps
// the old reader immediately; under load it unmaps the moment the final
// straggler finishes. If the file under a live mapping is truncated in
// place, the reader's fault guard turns the lost pages into
// dataset.ErrCorrupt, which the handlers answer with 503.
package serve

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"geoloc/internal/dataset"
	"geoloc/internal/ipaddr"
	"geoloc/internal/telemetry"
)

// Artifact is one published serving snapshot plus swap bookkeeping. All
// fields are immutable after publish; concurrent readers share it
// freely. Exactly one of DS and R2 is non-nil.
type Artifact struct {
	// DS is the decoded in-RAM dataset (GEODSET1 artifacts and datasets
	// compiled in-process); nil when serving a block-indexed artifact.
	DS *dataset.Dataset
	// R2 is the block-indexed GEODSET2 reader; nil for in-RAM artifacts.
	// Swapping it out closes it via the reader's reference count once
	// the last pinned request finishes (see pin/release).
	R2 *dataset.Reader2
	// Hdr is the artifact's provenance header (both formats).
	Hdr dataset.Header
	// Records is the artifact's record count (both formats).
	Records int
	// Gen is the swap generation: 1 for the first published artifact,
	// incremented by every successful swap. Monotonic across the life of
	// the process; geobench asserts it bumps across a hot-swap.
	Gen uint64
	// Source says where the artifact came from (a file path, or
	// "compiled:<scale>" for datasets built in-process).
	Source string
}

// Find answers one address from the snapshot: a binary search of the
// record slice for in-RAM artifacts, a block-index lookup (touching at
// most one block) for GEODSET2. The error is always nil for in-RAM
// artifacts; a damaged or vanished block surfaces it so the caller can
// answer 503 rather than fake a miss.
func (a *Artifact) Find(addr ipaddr.Addr) (dataset.Record, bool, error) {
	if a.DS != nil {
		rec, ok := a.DS.Find(addr)
		return rec, ok, nil
	}
	return a.R2.Find(addr)
}

// pin takes a reference on the snapshot's reader so a concurrent swap
// cannot close it mid-request. In-RAM artifacts are garbage-collected
// like any other value and pin trivially. Reports false when the reader
// already closed (the caller re-reads Current and retries).
func (a *Artifact) pin() bool {
	if a.R2 == nil {
		return true
	}
	return a.R2.TryPin()
}

// release drops the reference pin took; the last release after a swap
// closes the retired reader.
func (a *Artifact) release() {
	if a.R2 != nil {
		a.R2.Unpin()
	}
}

// Swapper owns the atomic artifact pointer. The read side (Current) is a
// single atomic load; the write side (Publish, Reload) builds the new
// snapshot side-by-side with the old artifact still serving and
// publishes with one atomic store.
type Swapper struct {
	swaps     *telemetry.Counter
	swapFails *telemetry.Counter

	mu  sync.Mutex // serializes writers; readers never take it
	gen uint64     // guarded by mu
	cur atomic.Pointer[Artifact]
}

// NewSwapper returns an empty swapper (Current is nil until the first
// Publish).
func NewSwapper(reg *telemetry.Registry) *Swapper {
	return &Swapper{
		swaps:     reg.Counter("geoserve.swaps"),
		swapFails: reg.Counter("geoserve.swap_failures"),
	}
}

// Current returns the active artifact, or nil before the first Publish.
// Callers must capture it once per request and use that snapshot
// throughout, never re-read it mid-request.
func (sw *Swapper) Current() *Artifact { return sw.cur.Load() }

// Generation returns the current swap generation (0 before the first
// Publish).
func (sw *Swapper) Generation() uint64 {
	if a := sw.Current(); a != nil {
		return a.Gen
	}
	return 0
}

// Publish atomically makes ds the active artifact. The old artifact
// keeps serving until the store, and stays alive as long as any
// in-flight request holds it.
func (sw *Swapper) Publish(ds *dataset.Dataset, source string) *Artifact {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.gen++
	a := &Artifact{
		DS:      ds,
		Hdr:     ds.Hdr,
		Records: len(ds.Records),
		Gen:     sw.gen,
		Source:  source,
	}
	sw.store(a)
	return a
}

// store publishes the snapshot and retires the one it replaces: the
// swap drops the old reader's owner reference, so it closes as soon as
// the last pinned in-flight request releases it.
func (sw *Swapper) store(a *Artifact) {
	old := sw.cur.Swap(a)
	sw.swaps.Inc()
	if old != nil && old.R2 != nil && old.R2 != a.R2 {
		old.R2.Close()
	}
}

// PublishReader atomically makes a block-indexed GEODSET2 reader the
// active artifact.
func (sw *Swapper) PublishReader(r2 *dataset.Reader2, source string) *Artifact {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.gen++
	a := &Artifact{
		R2:      r2,
		Hdr:     r2.Header(),
		Records: r2.NumRecords(),
		Gen:     sw.gen,
		Source:  source,
	}
	sw.store(a)
	return a
}

// Reload opens the artifact file at path — sniffing its magic to pick
// GEODSET1 (decoded whole) or GEODSET2 (block-indexed) — and publishes
// it. On any failure — unreadable file, bad magic, corrupt frame, wrong
// version — the active artifact is untouched (the rollback guarantee)
// and the swap_failures counter records the attempt.
func (sw *Swapper) Reload(path string) (*Artifact, error) {
	magic, err := sniffMagic(path)
	if err != nil {
		sw.swapFails.Inc()
		return nil, fmt.Errorf("reload rejected, still serving generation %d: %w", sw.Generation(), err)
	}
	if magic == dataset.Magic2 {
		r2, err := dataset.Open2(path)
		if err != nil {
			sw.swapFails.Inc()
			return nil, fmt.Errorf("reload rejected, still serving generation %d: %w", sw.Generation(), err)
		}
		return sw.PublishReader(r2, path), nil
	}
	ds, err := dataset.Load(path)
	if err != nil {
		sw.swapFails.Inc()
		return nil, fmt.Errorf("reload rejected, still serving generation %d: %w", sw.Generation(), err)
	}
	return sw.Publish(ds, path), nil
}

// sniffMagic reads a file's leading magic string. A file too short to
// hold one returns "" (not an error) so the GEODSET1 loader can report
// its usual named failure.
func sniffMagic(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var m [8]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return "", nil
	}
	return string(m[:]), nil
}
