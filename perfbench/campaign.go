package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"geoloc/internal/core"
	"geoloc/internal/experiments"
	"geoloc/internal/geo"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not move it.
const setupReps = 3

// seedVariants is how many distinct inputs the batch workloads derive
// from --seed. Their outputs are checked against digests recorded for
// each variant, so the set is finite.
const seedVariants = 4

// campaignExperiments are the experiments reported as their own per-layer
// metric: the costliest ones. The rest are summed in experiments.rest_s.
var campaignExperiments = map[string]bool{
	"fig2a": true, "fig2b": true, "fig3b": true, "fig5a": true, "multistep": true, "chaos": true,
}

// runCampaign is the campaign-medium workload: the paper pipeline on the
// medium world — campaign set-up (world generation and §4.3
// sanitization), both RTT matrices, then every registered experiment.
// The seed picks the experiments' subset-sampling seed.
func runCampaign(rc *runCtx) error {
	opts := experiments.DefaultOptions()
	opts.Seed = 1 + rc.seed%seedVariants
	cfg := world.MediumConfig()
	if rc.trace {
		telemetry.Enable()
	}

	var setups []float64
	var c *core.Campaign
	var mem *heapSampler
	for i := 0; i < setupReps; i++ {
		c = nil
		runtime.GC()
		if i == setupReps-1 {
			mem = startHeapSampler()
		}
		sp := rc.tr.start("core.NewCampaign", 0)
		t := time.Now()
		c = core.NewCampaign(cfg)
		setups = append(setups, elapsed(t))
		rc.tr.end(sp)
		if i == setupReps-1 {
			rc.set("core.campaign_s", setups[i], "s", 1, "last set-up")
		}
	}
	rc.set("setup_s", median(setups), "s", len(setups), "core.NewCampaign(world.MediumConfig()), median")

	locates := telemetry.Default().Counter("cbg.locates")
	hits := telemetry.Default().Counter("netsim.route_cache_hits")
	misses := telemetry.Default().Counter("netsim.route_cache_misses")
	locates0, hits0, misses0 := locates.Value(), hits.Value(), misses.Value()

	start := time.Now()
	root := rc.tr.start("campaign-medium", 0)
	// ready holds when each result became available, from the start of
	// the timed phase: every result is due at its start.
	var ready []float64
	sp := rc.tr.start("core.BuildMatrices", root)
	c.BuildMatrices()
	ready = append(ready, elapsed(start))
	rc.tr.end(sp)
	rc.set("core.matrices_s", ready[0], "s", 1, "")

	ctx := experiments.NewContextFromCampaign(c, opts)
	reg := experiments.Registry()
	rest := 0.0
	rendered := make([]string, len(reg))
	for i, e := range reg {
		sp := rc.tr.start("experiments."+e.ID, root)
		t := time.Now()
		rendered[i] = e.Run(ctx).Render()
		d := elapsed(t)
		rc.tr.end(sp)
		ready = append(ready, elapsed(start))
		if campaignExperiments[e.ID] {
			rc.set("experiments."+e.ID+"_s", d, "s", 1, "")
		} else {
			rest += d
		}
	}
	wall := elapsed(start)
	rc.tr.end(root)
	peak := mem.stop()

	rc.set("wall_s", wall, "s", 1, "BuildMatrices plus every experiment")
	setReadyLatency(rc, ready, "the matrices and each report")
	rc.set("mem_mb", float64(peak)/(1<<20), "MiB", mem.samples, "peak heap in use")
	rc.set("experiments.rest_s", rest, "s", len(reg)-len(campaignExperiments), "")

	st := c.Platform.Stats()
	rc.set("atlas.credits", float64(st.Credits), "count", 1, "exact")
	rc.set("atlas.pings", float64(st.Pings), "count", 1, "exact")
	rc.set("atlas.traceroutes", float64(st.Traceroutes), "count", 1, "exact")

	rc.attempted = len(reg)
	key := fmt.Sprintf("options-seed-%d", opts.Seed)
	whole := sha256.New()
	for i, e := range reg {
		whole.Write([]byte(rendered[i]))
		sum := sha256.Sum256([]byte(rendered[i]))
		if !rc.checkDigest("campaign-medium", key+"/"+e.ID, hex.EncodeToString(sum[:])) {
			rc.failed++
		}
	}
	fmt.Printf("digest campaign-medium %s/all-reports %s\n", key, hex.EncodeToString(whole.Sum(nil)))

	if !rc.trace {
		return nil
	}
	rc.set("bench.traced_wall_s", wall, "s", 1, "traced wall_s; minus the untraced wall_s is the tracing overhead")
	if share := rc.tr.printBudget(root, wall); share < 0.9 {
		rc.fail("campaign-medium: spans account for %.1f%% of wall_s, want >= 90%%", 100*share)
	}
	rc.set("cbg.locates", float64(locates.Value()-locates0), "count", 1, "BuildMatrices plus experiments")
	if h, m := hits.Value()-hits0, misses.Value()-misses0; h+m > 0 {
		rc.set("netsim.route_cache_hit_ratio", float64(h)/float64(h+m), "ratio", int(h+m), "")
	}
	rc.set("cbg.ns_per_locate", nsPerLocate(rc, c), "ns", len(c.Targets), "all-VP CBG per target, measured apart")
	return nil
}

// setReadyLatency reports a batch workload's latency: how long after the
// start of the timed phase, when all of them were due, each partial
// result was ready. It reports their median and tail.
func setReadyLatency(rc *runCtx, ready []float64, what string) {
	ms := make([]float64, len(ready))
	for i, r := range ready {
		ms[i] = r * 1e3
	}
	pct, v, n := tail(ms)
	rc.set("p50_ms", median(ms), "ms", n, "median time until ready of "+what)
	rc.set("tail_ms", v, "ms", n, fmt.Sprintf("p%g time until ready of %s", pct, what))
}

// nsPerLocate times the CBG layer alone: an all-VP locate of every target
// over the campaign's matrix, repeated for about half a second.
func nsPerLocate(rc *runCtx, c *core.Campaign) float64 {
	sp := rc.tr.start("cbg.LocateSubset", 0)
	defer rc.tr.end(sp)
	calls := 0
	start := time.Now()
	for elapsed(start) < 0.5 {
		for ti := range c.Targets {
			c.TargetRTT.LocateSubset(ti, nil, geo.TwoThirdsC)
			calls++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// heapSampler tracks the peak of the Go heap in use while it runs.
type heapSampler struct {
	stopc   chan struct{}
	done    sync.WaitGroup
	peak    uint64
	samples int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.samples++
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	h.done.Wait()
	return h.peak
}
