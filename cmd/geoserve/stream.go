package main

import (
	"log"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/world"
)

// streamScale recognizes a numeric -scale value ("50000", "1e6"),
// selecting the streaming pipeline instead of a named campaign config.
func streamScale(s string) (int, bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 1 || f > 1<<24 {
		return 0, false
	}
	return int(f), true
}

// streamCompile external-merge compiles an n-target streaming campaign
// into a block-indexed GEODSET2 artifact. With out set the artifact
// lands there (for -write); otherwise it goes to a temp directory and
// the returned cleanup removes it after serving ends.
func streamCompile(n int, out string) (string, func(), error) {
	cleanup := func() {}
	dir := filepath.Dir(out)
	if out == "" {
		tmp, err := os.MkdirTemp("", "geoserve-stream-*")
		if err != nil {
			return "", nil, err
		}
		cleanup = func() { os.RemoveAll(tmp) }
		dir, out = tmp, filepath.Join(tmp, "geodset.bin")
	}
	start := time.Now()
	log.Printf("streaming %d-target campaign to %s...", n, out)
	c := core.NewCampaign(world.TinyConfig())
	src, err := core.NewStreamCampaign(c, core.StreamSpec{Targets: n})
	if err != nil {
		cleanup()
		return "", nil, err
	}
	hdr := dataset.Header{ConfigHash: src.ConfigHash(), Seed: c.W.Cfg.Seed, Profile: "stream"}
	stats, err := dataset.CompileExternal(out, src, hdr, dataset.Options{}, nil, dataset.StreamConfig{
		SpillDir: filepath.Join(dir, "spill"),
		V2:       true,
	})
	if err != nil {
		cleanup()
		return "", nil, err
	}
	log.Printf("streamed %d records into %d blocks (%.1fs)", stats.Records, stats.Blocks, time.Since(start).Seconds())
	return out, cleanup, nil
}

// isBlockIndexed sniffs whether the artifact at path is a GEODSET2 —
// served through a mapping rather than decoded whole. Short or
// unreadable files answer false so the GEODSET1 loader reports its
// usual named error.
func isBlockIndexed(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var m [8]byte
	if _, err := f.Read(m[:]); err != nil {
		return false
	}
	return string(m[:]) == dataset.Magic2
}
