package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"geoloc/internal/cbg"
	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/ipaddr"
	"geoloc/internal/world"
)

// streamTargets is the compile-stream size: about 49 spill windows of the
// default 4096 targets, merged into one GEODSET2 artifact.
const streamTargets = 200_000

// compileSetupReps is how many times compile-stream sets up; its set-up
// takes milliseconds, so more repetitions keep the median steady.
const compileSetupReps = 9

// replayTargets is how many pre-measured targets the traced run replays
// through CompileFromSource to time the centroid layer alone.
const replayTargets = 16384

// runCompile is the compile-stream workload: a streaming external-merge
// compile of streamTargets synthetic /24s over the tiny world's vantage
// points into a GEODSET2 artifact. The seed picks the world seed.
func runCompile(rc *runCtx) error {
	cfg := world.TinyConfig()
	cfg.Seed += rc.seed % seedVariants

	var setups []float64
	var c *core.Campaign
	var src *core.StreamCampaign
	for i := 0; i < compileSetupReps; i++ {
		t := time.Now()
		c = core.NewCampaign(cfg)
		s, err := core.NewStreamCampaign(c, core.StreamSpec{Targets: streamTargets})
		if err != nil {
			return err
		}
		setups = append(setups, elapsed(t))
		src = s
	}
	rc.set("setup_s", median(setups), "s", len(setups), "core.NewCampaign(world.TinyConfig()) + NewStreamCampaign, median")
	hdr := dataset.Header{ConfigHash: src.ConfigHash(), Seed: c.W.Cfg.Seed, Profile: "stream"}

	var source dataset.Source = src
	var timed *timedSource
	if rc.trace {
		timed = &timedSource{src: src}
		source = timed
	}
	artifact := filepath.Join(rc.work, "stream.geodset2")
	var seals []time.Time
	runtime.GC()
	mem := startHeapSampler()
	start := time.Now()
	root := rc.tr.start("compile-stream", 0)
	stats, err := dataset.CompileExternal(artifact, source, hdr, dataset.Options{}, nil, dataset.StreamConfig{
		SpillDir: filepath.Join(rc.work, "spill"),
		V2:       true,
		OnWindowSpilled: func(int) error {
			seals = append(seals, time.Now())
			return nil
		},
	})
	end := time.Now()
	rc.tr.end(root)
	peak := mem.stop()
	if err != nil {
		return fmt.Errorf("CompileExternal: %w", err)
	}
	wall := end.Sub(start).Seconds()
	if len(seals) == 0 {
		return fmt.Errorf("CompileExternal spilled no window")
	}

	windows := make([]float64, len(seals))
	ready := make([]float64, len(seals))
	prev := start
	for i, s := range seals {
		windows[i] = s.Sub(prev).Seconds()
		ready[i] = s.Sub(start).Seconds()
		rc.tr.add("dataset.window", root, prev, s)
		prev = s
	}
	merge := end.Sub(prev).Seconds()
	rc.tr.add("dataset.merge", root, prev, end)

	rc.set("wall_s", wall, "s", 1, fmt.Sprintf("CompileExternal of %d targets", streamTargets))
	setReadyLatency(rc, ready, "each sealed spill window")
	rc.set("mem_mb", float64(peak)/(1<<20), "MiB", mem.samples, "peak heap in use")
	rc.set("core.targets_per_s", float64(stats.Targets)/wall, "1/s", stats.Targets, "")
	rc.set("dataset.artifact_mb", float64(stats.ArtifactBytes)/1e6, "MB", stats.Records, "exact, for the record count given as n")
	rc.set("dataset.window_s", median(windows), "s", len(windows), "median window")
	rc.set("dataset.spill_mb", float64(stats.SpillBytes)/1e6, "MB", stats.Windows, "")
	rc.set("dataset.merge_s", merge, "s", 1, "last seal until CompileExternal returns")
	rc.set("dataset.blocks", float64(stats.Blocks), "count", 1, "")

	rc.attempted = 1
	sum, err := fileSHA256(artifact)
	if err != nil {
		return err
	}
	if !rc.checkDigest("compile-stream", fmt.Sprintf("world-seed-%d", cfg.Seed), sum) {
		rc.failed = 1
	}

	if !rc.trace {
		return nil
	}
	rc.set("bench.traced_wall_s", wall, "s", 1, "traced wall_s; minus the untraced wall_s is the tracing overhead")
	if share := rc.tr.printBudget(root, wall); share < 0.9 {
		rc.fail("compile-stream: spans account for %.1f%% of wall_s, want >= 90%%", 100*share)
	}
	calls := timed.calls.Load()
	busy := float64(timed.busyNs.Load())
	rc.set("core.stream_measure_ns", busy/float64(calls), "ns", int(calls), "per MeasureTarget call")
	rc.set("core.stream_busy_s", busy/1e9, "s", int(calls), "summed over workers")
	fmt.Printf("  MeasureTarget busy %.3f s of %.3f s wall x %d workers\n", busy/1e9, wall, runtime.GOMAXPROCS(0))
	rc.set("dataset.centroid_ns", centroidNs(rc, src, hdr), "ns", replayTargets, "CompileFromSource over pre-measured targets, wall per target")
	return nil
}

// timedSource wraps a dataset.Source and times every MeasureTarget call.
type timedSource struct {
	src    dataset.Source
	calls  atomic.Int64
	busyNs atomic.Int64
}

func (t *timedSource) NumTargets() int { return t.src.NumTargets() }

func (t *timedSource) MeasureTarget(i int, buf []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement) {
	start := time.Now()
	p, ms := t.src.MeasureTarget(i, buf)
	t.busyNs.Add(int64(time.Since(start)))
	t.calls.Add(1)
	return p, ms
}

// replaySource serves measurements recorded in advance, so compiling
// from it costs only the dataset and geo layers.
type replaySource struct {
	pfx []ipaddr.Prefix24
	ms  [][]cbg.Measurement
}

func (r *replaySource) NumTargets() int { return len(r.pfx) }

func (r *replaySource) MeasureTarget(i int, buf []cbg.Measurement) (ipaddr.Prefix24, []cbg.Measurement) {
	return r.pfx[i], append(buf[:0], r.ms[i]...)
}

// centroidNs times CompileFromSource over replayTargets pre-measured
// targets: the per-target cost of record compilation, which the
// geo.Sampler centroid dominates.
func centroidNs(rc *runCtx, src *core.StreamCampaign, hdr dataset.Header) float64 {
	rs := &replaySource{pfx: make([]ipaddr.Prefix24, replayTargets), ms: make([][]cbg.Measurement, replayTargets)}
	for i := range rs.pfx {
		var ms []cbg.Measurement
		rs.pfx[i], ms = src.MeasureTarget(i, nil)
		rs.ms[i] = ms
	}
	sp := rc.tr.start("dataset.CompileFromSource", 0)
	start := time.Now()
	dataset.CompileFromSource(rs, hdr, dataset.Options{}, nil)
	ns := float64(time.Since(start).Nanoseconds())
	rc.tr.end(sp)
	return ns / replayTargets
}

func fileSHA256(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
