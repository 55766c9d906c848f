// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the pipeline or the serving tier, checks every
// output, prints each metric by name with its unit and sample count, and
// ends with one JSON result line. README.md in this directory describes
// the workloads, the metrics and how to run them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// workload is one named set of inputs and the code that drives the
// program under test with them.
type workload struct {
	name string
	run  func(*runCtx) error
}

var workloads = []workload{
	{"campaign-medium", runCampaign},
	{"compile-stream", runCompile},
	{"serve-uniform", runServeUniform},
	{"serve-skew-swap", runServeSkewSwap},
}

// decl names a metric BENCHMARK.json declares, with its unit.
type decl struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json declares, in its
// order: the untraced run reports every endToEnd metric, the traced run
// every perLayer one. A layer the workload leaves idle reports 0.
var endToEnd = []decl{
	{"setup_s", "s"}, {"mem_mb", "MiB"}, {"wall_s", "s"}, {"p50_ms", "ms"}, {"tail_ms", "ms"},
}

var perLayer = []decl{
	{"core.campaign_s", "s"}, {"core.matrices_s", "s"},
	{"atlas.pings", "count"}, {"atlas.traceroutes", "count"}, {"atlas.credits", "count"},
	{"netsim.route_cache_hit_ratio", "ratio"},
	{"experiments.fig2a_s", "s"}, {"experiments.fig2b_s", "s"}, {"experiments.fig3b_s", "s"},
	{"experiments.fig5a_s", "s"}, {"experiments.multistep_s", "s"}, {"experiments.chaos_s", "s"},
	{"experiments.rest_s", "s"},
	{"cbg.locates", "count"}, {"cbg.ns_per_locate", "ns"},
	{"core.stream_measure_ns", "ns"}, {"core.stream_busy_s", "s"}, {"core.targets_per_s", "1/s"},
	{"dataset.centroid_ns", "ns"}, {"dataset.window_s", "s"}, {"dataset.spill_mb", "MB"},
	{"dataset.merge_s", "s"}, {"dataset.blocks", "count"}, {"dataset.artifact_mb", "MB"},
	{"serve.reload_ms", "ms"}, {"serve.find_ns", "ns"}, {"ipaddr.parse_ns", "ns"},
	{"serve.handler_us", "us"},
	{"geoserve.server_ms", "ms"}, {"geoserve.shed", "count"}, {"geoserve.swaps", "count"},
	{"client.p99_ms", "ms"}, {"client.batch_p99_ms", "ms"}, {"client.max_rps", "1/s"},
	{"client.swap_ms", "ms"},
	{"bench.gen_late_p99_ms", "ms"}, {"bench.sent", "count"}, {"bench.ok", "count"},
	{"bench.failed", "count"},
	{"bench.traced_wall_s", "s"}, {"bench.traced_p50_ms", "ms"}, {"bench.host_steal_frac", "ratio"},
}

// metric is one reported figure. n is the sample count behind it (1 for
// a single measurement or an exact count).
type metric struct {
	value float64
	unit  string
	n     int
	note  string
}

// runCtx carries one run's settings and collects its results.
type runCtx struct {
	seed     uint64
	seconds  float64
	trace    bool
	geoserve string
	work     string
	digests  map[string]map[string]string

	tr *tracer

	metrics   map[string]metric
	attempted int
	failed    int
	problems  []string
}

// set records a metric.
func (rc *runCtx) set(name string, value float64, unit string, n int, note string) {
	rc.metrics[name] = metric{value, unit, n, note}
}

// fail records a wrong output. Every recorded problem makes the run
// incorrect and its exit status non-zero.
func (rc *runCtx) fail(format string, args ...any) {
	rc.problems = append(rc.problems, fmt.Sprintf(format, args...))
}

func main() {
	wl := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 25, "length of the serving runs' timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	geoserve := flag.String("geoserve", "", "path of the geoserve binary under test")
	work := flag.String("work", "", "directory for generated inputs and artifacts")
	digests := flag.String("digests", "", "JSON file of the recorded output digests")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *wl {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *wl, workloadNames())
		os.Exit(2)
	}
	if *work == "" || *geoserve == "" || *digests == "" {
		fmt.Fprintln(os.Stderr, "perfbench: -work, -geoserve and -digests are required (run it through run.sh)")
		os.Exit(2)
	}
	rc := &runCtx{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		geoserve: *geoserve,
		metrics:  map[string]metric{},
	}
	if err := loadDigests(*digests, &rc.digests); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	dir, err := os.MkdirTemp(*work, w.name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	rc.work = dir
	if rc.trace {
		rc.tr = newTracer()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		w.name, rc.seed, rc.seconds, *trace, runtime.GOMAXPROCS(0))
	steal0, stealErr := hostSteal()
	err = w.run(rc)
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if steal1, err := hostSteal(); err == nil && stealErr == nil {
		// Time the hypervisor gave this machine's CPUs to other guests.
		// Timings of a run with a large share of it say more about the
		// host than about the program.
		rc.set("bench.host_steal_frac", steal1.sub(steal0), "ratio", 1, "share of CPU time stolen by the host during the run")
	}
	if rc.tr != nil {
		if err := rc.tr.write(*work, w.name, rc.seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	os.Exit(report(os.Stdout, rc))
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func loadDigests(path string, into *map[string]map[string]string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("read digests: %w", err)
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return nil
}

// checkDigest compares a computed output digest with the recorded one.
// A missing or different digest is a wrong output.
func (rc *runCtx) checkDigest(workload, key, got string) bool {
	want := rc.digests[workload][key]
	fmt.Printf("digest %s %s %s\n", workload, key, got)
	if want == got {
		return true
	}
	if want == "" {
		rc.fail("%s %s: no recorded digest (got %s)", workload, key, got)
	} else {
		rc.fail("%s %s: digest %s, recorded %s", workload, key, got, want)
	}
	return false
}

// report prints every metric of the run's kind and the JSON result line,
// and returns the exit status: non-zero when any output was wrong.
func report(out io.Writer, rc *runCtx) int {
	names := endToEnd
	if rc.trace {
		names = perLayer
	}
	for _, p := range rc.problems {
		fmt.Fprintf(out, "WRONG: %s\n", p)
	}
	extra := make([]string, 0, len(rc.metrics))
	for name := range rc.metrics {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	fmt.Fprintln(out, "metrics (name, value, unit, samples):")
	for _, name := range extra {
		m := rc.metrics[name]
		line := fmt.Sprintf("  %-30s %14.6g %-6s n=%d", name, m.value, m.unit, m.n)
		if m.note != "" {
			line += "  " + m.note
		}
		fmt.Fprintln(out, line)
	}
	failFrac := 0.0
	if rc.attempted > 0 {
		failFrac = float64(rc.failed) / float64(rc.attempted)
	}
	fmt.Fprintf(out, "  %-30s %14.6g %-6s n=%d\n", "fail_frac", failFrac, "ratio", rc.attempted)

	res := struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}{
		Correct:   len(rc.problems) == 0 && rc.failed == 0,
		Attempted: rc.attempted,
		Failed:    rc.failed,
		Metrics:   map[string]json.RawMessage{},
	}
	for _, d := range names {
		m, ok := rc.metrics[d.name]
		switch {
		case !ok && rc.trace:
			m = metric{unit: d.unit} // the workload leaves this layer idle
		case !ok:
			fmt.Fprintf(out, "WRONG: metric %s was not measured\n", d.name)
			res.Correct = false
			continue
		case m.unit != d.unit:
			fmt.Fprintf(out, "WRONG: metric %s measured in %s, declared in %s\n", d.name, m.unit, d.unit)
			res.Correct = false
		case math.IsNaN(m.value) || math.IsInf(m.value, 0):
			fmt.Fprintf(out, "WRONG: metric %s has no value\n", d.name)
			res.Correct = false
			continue
		}
		b, _ := json.Marshal(struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.value, d.unit})
		res.Metrics[d.name] = b
	}
	if res.Attempted < 1 {
		res.Correct = false
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(out, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// cpuTicks is the aggregate line of /proc/stat: total and steal ticks.
type cpuTicks struct{ total, steal uint64 }

func hostSteal() (cpuTicks, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTicks{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTicks
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTicks{}, err
		}
		if i < 8 { // user .. steal; guest time is already counted in user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// sub returns the steal share of the ticks between a and t.
func (t cpuTicks) sub(a cpuTicks) float64 {
	if t.total == a.total {
		return 0
	}
	return float64(t.steal-a.steal) / float64(t.total-a.total)
}

// elapsed returns seconds since t.
func elapsed(t time.Time) float64 { return time.Since(t).Seconds() }
