package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval around a call into a layer. Parent is the
// ID of the span that caused it (0 for a top-level span).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, so untraced runs pay one nil check per
// boundary.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

// end closes the span start returned and reports its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.epoch).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// add records an already-measured interval as a closed span.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Seconds(), End: end.Sub(t.epoch).Seconds()})
	return len(t.spans)
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	fmt.Printf("trace: %d spans written to %s\n", len(t.spans), path)
	return nil
}

// selfTimes returns the self time of every span below root — its
// duration minus the part its own children cover — summed by span name.
func (t *tracer) selfTimes(root int) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := map[string]float64{}
	var walk func(id int)
	walk = func(id int) {
		for _, s := range kids[id] {
			out[s.Name] += (s.End - s.Start) - covered(kids[s.ID], s.Start, s.End)
			walk(s.ID)
		}
	}
	walk(root)
	return out
}

// covered returns how much of [lo, hi] the union of spans covers.
func covered(spans []span, lo, hi float64) float64 {
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curA, curB := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}

// printBudget prints the latency budget of a batch workload: the self
// time of every span under root against the root's wall time, with the
// unaccounted rest shown as "other". It returns the traced share.
func (t *tracer) printBudget(root int, wall float64) float64 {
	if t == nil {
		return 0
	}
	self := t.selfTimes(root)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Printf("latency budget (self time against wall_s %.3f s):\n", wall)
	sum := 0.0
	for _, n := range names {
		sum += self[n]
		fmt.Printf("  %-34s %9.3f s %6.1f%%\n", n, self[n], 100*self[n]/wall)
	}
	fmt.Printf("  %-34s %9.3f s %6.1f%%\n", "other", wall-sum, 100*(wall-sum)/wall)
	return sum / wall
}
