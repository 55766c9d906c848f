package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"geoloc/internal/dataset"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
	"geoloc/internal/serve"
	"geoloc/internal/telemetry"
)

// Serving workload sizing. The artifact's range holds artifactSpan /24s,
// each covered with probability coverFrac, so about 100k records in 391
// blocks of the default 256 — six times the reader's 64-block cache.
const (
	artifactSpan = 111_112
	coverFrac    = 0.9
	hotBlocks    = 32
	zipfS        = 1.2
	malformedPct = 10
	batchEvery   = 16
	batchSize    = 8

	// nominalRate is where p50_ms and tail_ms are taken, well below the
	// capacity of geoserve on two cores; ladderRates are the higher
	// rates client.max_rps is taken from, each held for ladderShare of
	// the run.
	nominalRate   = 2000.0
	nominalShare  = 0.45
	ladderShare   = 0.1
	warmupSeconds = 0.5
	latencyLimit  = 10 * time.Millisecond
	// windowRequests is how many consecutive nominal-rate requests make
	// one window, about 125 ms. p50_ms and tail_ms are medians over the
	// windows, so a stall from outside the program under test moves few
	// of them. The tail of a window of 250 is its p95, the highest
	// percentile with ten samples beyond it.
	windowRequests = 250
	// bulkRequests is the fixed list wall_s times closed-loop, sent in
	// bulkBlocks blocks; wall_s is bulkBlocks times the median block.
	// The nominal phase runs in as many stretches, one before each block.
	bulkRequests = 36_000
	bulkBlocks   = 9
	swapEvery    = 2 * time.Second
	adminToken   = "perfbench"
	// serveSetupReps is how many times a serving run starts geoserve; a
	// start takes milliseconds, so more repetitions keep the median
	// steady.
	serveSetupReps = 9
)

var ladderRates = []float64{4000, 6000, 8000}

// base is the first /24 of the generated artifacts' range.
var base = ipaddr.Prefix24Of(ipaddr.Addr(64 << 24))

// serveSpec is one serving workload's traffic mix.
type serveSpec struct {
	// skew draws addresses from a Zipf over hotBlocks blocks instead of
	// uniformly over the whole range, makes malformedPct% of inputs
	// malformed and every batchEvery-th request a /batch.
	skew bool
	// swap alternates the served artifact every swapEvery under load.
	swap bool
}

func runServeUniform(rc *runCtx) error {
	return runServe(rc, serveSpec{})
}

func runServeSkewSwap(rc *runCtx) error {
	return runServe(rc, serveSpec{skew: true, swap: true})
}

// artifact is one generated GEODSET2 file and its decoded records, the
// oracle every answer is checked against.
type artifact struct {
	path string
	ds   *dataset.Dataset
}

func runServe(rc *runCtx, spec serveSpec) error {
	rng := rand.New(rand.NewPCG(rc.seed, 0x5e12e))
	nArt := 1
	if spec.swap {
		nArt = 2
	}
	arts := make([]artifact, nArt)
	for i := range arts {
		p := filepath.Join(rc.work, fmt.Sprintf("serve-%d.geodset2", i))
		if err := writeArtifact(p, rc.seed, i); err != nil {
			return err
		}
		ds, err := dataset.LoadAny(p)
		if err != nil {
			return fmt.Errorf("oracle load: %w", err)
		}
		arts[i] = artifact{p, ds}
	}
	gen := newInputGen(rng, arts[0].ds, spec)
	conns := runtime.NumCPU()

	// Set-up: start geoserve serveSetupReps times, time each start until the
	// first /readyz 200, and keep the last one serving.
	var setups []float64
	var srv *server
	for i := 0; i < serveSetupReps; i++ {
		if srv != nil {
			srv.stop()
		}
		s, err := startServer(rc.geoserve, arts[0].path)
		if err != nil {
			return err
		}
		srv = s
		setups = append(setups, s.setup)
	}
	defer srv.stop()
	rc.set("setup_s", median(setups), "s", len(setups), "geoserve start until the first /readyz 200, median")

	client := &http.Client{Timeout: 10 * time.Second}
	defer client.CloseIdleConnections()
	load := newHTTPConns(srv.addr, conns)
	defer load.close()
	send := load.send
	rss := startRSSSampler(srv.cmd.Process.Pid)
	before, err := scrape(client, srv.addr)
	if err != nil {
		return err
	}

	var swaps *swapper
	if spec.swap {
		swaps = startSwapper(client, srv.addr, arts)
	}
	var phases []*phase
	run := func(name string, rate float64, n int, closed bool) *phase {
		p := &phase{name: name, rate: rate, reqs: gen.requests(n)}
		if !closed {
			p.sched = poissonSchedule(rng, n, rate)
		}
		p.t0, p.res = openLoop(send, p.reqs, p.sched, conns)
		phases = append(phases, p)
		return p
	}
	run("warmup", nominalRate, int(warmupSeconds*nominalRate), false)
	// Nominal-rate stretches and closed-loop blocks alternate, so each
	// kind is spread over the whole run and a burst of outside load moves
	// few of the windows and blocks the medians are taken over.
	var nominal, bulk []*phase
	var server serverMetrics // geoserve's own latency over the nominal stretches
	for i := 0; i < bulkBlocks; i++ {
		m0, err := scrape(client, srv.addr)
		if err != nil {
			return err
		}
		n := max(windowRequests, int(nominalShare*rc.seconds*nominalRate/bulkBlocks))
		nominal = append(nominal, run("nominal", nominalRate, n, false))
		m1, err := scrape(client, srv.addr)
		if err != nil {
			return err
		}
		server.latencySum += m1.latencySum - m0.latencySum
		server.latencyCount += m1.latencyCount - m0.latencyCount
		bulk = append(bulk, run("bulk", 0, bulkRequests/bulkBlocks, true))
	}
	var rungs []*phase
	for _, r := range ladderRates {
		rungs = append(rungs, run(fmt.Sprintf("ladder-%g", r), r, max(1, int(ladderShare*rc.seconds*r)), false))
	}
	var swapMs []float64
	if swaps != nil {
		swapMs = swaps.stop()
	}
	peakRSS, rssSamples := rss.stop()
	after, err := scrape(client, srv.addr)
	if err != nil {
		return err
	}

	var events []swapEvent
	if swaps != nil {
		events = swaps.events
	}
	sent, ok, failed := verify(rc, phases, events, arts)
	rc.attempted, rc.failed = sent, failed

	// End-to-end metrics: medians over windows and blocks.
	isLookup := func(r *request) bool { return !r.batch }
	var p50s, tails, blocks, lat, batchLat, late []float64
	var tpct float64
	for _, p := range nominal {
		for _, w := range p.windows(windowRequests) {
			l := latenciesMs(w, isLookup)
			p50s = append(p50s, median(l))
			pct, v, _ := tail(l)
			tpct = pct
			tails = append(tails, v)
		}
		lat = append(lat, latenciesMs(p, isLookup)...)
		batchLat = append(batchLat, latenciesMs(p, func(r *request) bool { return r.batch })...)
		for _, r := range p.res {
			late = append(late, float64(r.late)/1e6)
		}
	}
	for _, b := range bulk {
		blocks = append(blocks, b.length().Seconds())
	}
	fmt.Printf("windows: p50_ms %s\n         tail_ms %s\nblocks:  wall_s %s\n", spreadOf(p50s), spreadOf(tails), spreadOf(blocks))
	rc.set("p50_ms", median(p50s), "ms", len(lat),
		fmt.Sprintf("/lookup at %g/s open loop from due time, median over %d windows", nominalRate, len(p50s)))
	rc.set("tail_ms", median(tails), "ms", len(lat),
		fmt.Sprintf("p%g of /lookup at %g/s from due time, median over %d windows", tpct, nominalRate, len(tails)))
	rc.set("wall_s", bulkBlocks*median(blocks), "s", bulkRequests,
		fmt.Sprintf("closed loop over %d connections: %d x the median of %d blocks of %d", conns, bulkBlocks, bulkBlocks, bulkRequests/bulkBlocks))
	rc.set("mem_mb", float64(peakRSS)/(1<<20), "MiB", rssSamples, "peak RssAnon of geoserve")

	// Client-side serving figures, reported in the traced run.
	pct, p99, n := tailAtMost(lat, 99)
	rc.set("client.p99_ms", p99, "ms", n, fmt.Sprintf("p%g pooled over the nominal stretches", pct))
	if spec.skew {
		pct, v, n := tailAtMost(batchLat, 99)
		rc.set("client.batch_p99_ms", v, "ms", n, fmt.Sprintf("p%g of /batch at the nominal rate", pct))
	}
	maxRPS, maxNote := nominal[0].achieved(), fmt.Sprintf("achieved at %g/s", nominalRate)
	for _, p := range rungs {
		l := latenciesMs(p, func(*request) bool { return true })
		_, v, _ := tail(l)
		if v > float64(latencyLimit)/1e6 || p.backlogged() {
			break
		}
		maxRPS, maxNote = p.achieved(), fmt.Sprintf("achieved at %g/s", p.rate)
	}
	rc.set("client.max_rps", maxRPS, "1/s", 1, maxNote+fmt.Sprintf(", tail limit %v, ladder %v", latencyLimit, ladderRates))
	if len(swapMs) > 0 {
		rc.set("client.swap_ms", median(swapMs), "ms", len(swapMs), "POST /admin/reload under load, median")
	}
	lpct, lv, ln := tailAtMost(late, 99)
	rc.set("bench.gen_late_p99_ms", lv, "ms", ln, fmt.Sprintf("p%g generator lateness at the nominal rate; must stay far below p50_ms", lpct))
	rc.set("bench.sent", float64(sent), "count", 1, "")
	rc.set("bench.ok", float64(ok), "count", 1, "")
	rc.set("bench.failed", float64(failed), "count", 1, "")
	if server.latencyCount > 0 {
		rc.set("geoserve.server_ms", server.latencySum/server.latencyCount, "ms", int(server.latencyCount),
			"mean handler latency over the nominal stretches, from /metrics")
	}
	rc.set("geoserve.shed", after.shed-before.shed, "count", 1, "")
	rc.set("geoserve.swaps", after.swaps-before.swaps, "count", 1, "")
	for _, p := range phases {
		fmt.Printf("phase %-12s rate %6g/s  n=%6d  achieved %6.0f/s in %v\n", p.name, p.rate, len(p.res), p.achieved(), p.length())
		rc.tr.add("client."+p.name, 0, p.t0, p.t0.Add(p.length()))
	}

	if !rc.trace {
		return nil
	}
	rc.set("bench.traced_p50_ms", median(p50s), "ms", len(lat), "traced p50_ms; minus the untraced p50_ms is the tracing overhead")
	return layerServe(rc, arts, gen)
}

// verify checks every answer of the phases, and every reload, against
// the artifacts' own records. Around a reload either artifact's answer
// is right. A wrong answer counts as failed like a refused request.
func verify(rc *runCtx, phases []*phase, events []swapEvent, arts []artifact) (sent, ok, failed int) {
	for _, p := range phases {
		for i := range p.res {
			r := &p.res[i]
			sent++
			allowed := allowedArtifacts(events, p.t0.Add(r.sent), p.t0.Add(r.done))
			if msg := checkAnswer(&p.reqs[i], r, arts, allowed); msg != "" {
				failed++
				if failed <= 10 {
					rc.fail("%s request %d: %s", p.name, i, msg)
				}
				continue
			}
			ok++
		}
	}
	for _, e := range events {
		sent++
		if e.err != nil {
			failed++
			rc.fail("reload to %s: %v", arts[e.to].path, e.err)
		} else {
			ok++
		}
	}
	return sent, ok, failed
}

// phase is one stretch of traffic at one rate (or closed loop).
type phase struct {
	name  string
	rate  float64
	t0    time.Time
	reqs  []request
	sched []time.Duration
	res   []result
}

// achieved is the rate of correctly answered requests per second of the
// phase's length.
func (p *phase) achieved() float64 {
	ok := 0
	for _, r := range p.res {
		if r.err == nil && r.status != 0 && r.status < 429 {
			ok++
		}
	}
	return float64(ok) / p.length().Seconds()
}

// length is the time from the phase's start until its last answer.
func (p *phase) length() time.Duration {
	var end time.Duration
	for _, r := range p.res {
		end = max(end, r.done)
	}
	return end
}

// backlogged reports whether the phase ended with a backlog: the
// requests due in its last fifth waited longer, at the median, than the
// latency limit.
func (p *phase) backlogged() bool {
	var last []float64
	for _, r := range p.res[len(p.res)*4/5:] {
		last = append(last, float64(r.latency())/1e6)
	}
	return median(last) > float64(latencyLimit)/1e6
}

// windows splits the phase into consecutive windows of n requests,
// dropping a short last one.
func (p *phase) windows(n int) []*phase {
	var out []*phase
	for lo := 0; lo+n <= len(p.res); lo += n {
		out = append(out, &phase{name: p.name, rate: p.rate, t0: p.t0, reqs: p.reqs[lo : lo+n], res: p.res[lo : lo+n]})
	}
	return out
}

// latenciesMs returns the latencies of the phase's requests that keep
// selects.
func latenciesMs(p *phase, keep func(*request) bool) []float64 {
	var out []float64
	for i, r := range p.res {
		if keep(&p.reqs[i]) {
			out = append(out, float64(r.latency())/1e6)
		}
	}
	return out
}

// writeArtifact generates serving artifact number idx for seed: about
// artifactSpan*coverFrac records from base on. Every artifact of a seed
// covers the same /24s; their locations differ, so an answer shows which
// artifact gave it.
func writeArtifact(path string, seed uint64, idx int) error {
	cover := rand.New(rand.NewPCG(seed, 0xc0fe))
	loc := rand.New(rand.NewPCG(seed, uint64(idx)+1))
	w, err := dataset.NewWriter2(path, dataset.Header{ConfigHash: seed<<8 | uint64(idx), Seed: seed, Profile: "perfbench"}, 0)
	if err != nil {
		return err
	}
	for i := 0; i < artifactSpan; i++ {
		if cover.Float64() >= coverFrac {
			continue
		}
		rec := dataset.Record{
			Prefix:    base + ipaddr.Prefix24(i),
			Centroid:  geo.Point{Lat: loc.Float64()*140 - 60, Lon: loc.Float64()*360 - 180},
			RadiusKm:  1 + loc.Float64()*500,
			Method:    dataset.MethodCBG,
			Sanitized: true,
		}
		if err := w.Add(rec); err != nil {
			w.Abort()
			return err
		}
	}
	if _, err := w.Finish(); err != nil {
		return fmt.Errorf("write artifact: %w", err)
	}
	return nil
}

// inputGen draws the workload's addresses and requests.
type inputGen struct {
	rng  *rand.Rand
	spec serveSpec
	zipf *rand.Zipf
	// hot holds the first and last /24 of each hot block's records.
	hot [][2]ipaddr.Prefix24
	n   int
}

func newInputGen(rng *rand.Rand, ds *dataset.Dataset, spec serveSpec) *inputGen {
	g := &inputGen{rng: rng, spec: spec}
	if spec.skew {
		blocks := (len(ds.Records) + dataset.DefaultBlockSize - 1) / dataset.DefaultBlockSize
		for _, b := range rng.Perm(blocks)[:hotBlocks] {
			lo := b * dataset.DefaultBlockSize
			hi := min(lo+dataset.DefaultBlockSize, len(ds.Records)) - 1
			g.hot = append(g.hot, [2]ipaddr.Prefix24{ds.Records[lo].Prefix, ds.Records[hi].Prefix})
		}
		g.zipf = rand.NewZipf(rng, zipfS, 1, hotBlocks-1)
	}
	return g
}

// malformed are inputs that are not IPv4 addresses; each must answer 400.
var malformed = []string{"256.1.2.3", "1.2.3", "a.b.c.d", "1.2.3.4.5", "1..2.3", "999.999.999.999", "12.34.56.", "-1.2.3.4"}

// ip draws one input string.
func (g *inputGen) ip() string {
	if !g.spec.skew {
		p := base + ipaddr.Prefix24(g.rng.IntN(artifactSpan))
		return p.Addr(byte(g.rng.IntN(256))).String()
	}
	if g.rng.IntN(100) < malformedPct {
		return malformed[g.rng.IntN(len(malformed))]
	}
	h := g.hot[g.zipf.Uint64()]
	p := h[0] + ipaddr.Prefix24(g.rng.IntN(int(h[1]-h[0])+1))
	return p.Addr(byte(g.rng.IntN(256))).String()
}

// requests draws the next n requests of the mix.
func (g *inputGen) requests(n int) []request {
	out := make([]request, n)
	for i := range out {
		g.n++
		if g.spec.skew && g.n%batchEvery == 0 {
			ips := make([]string, batchSize)
			for j := range ips {
				ips[j] = g.ip()
			}
			out[i] = batchRequest(ips)
			continue
		}
		out[i] = lookupRequest(g.ip())
	}
	return out
}

// lookupAnswer is one /lookup answer or /batch item.
type lookupAnswer struct {
	IP     string   `json:"ip"`
	Prefix string   `json:"prefix"`
	Lat    *float64 `json:"lat"`
	Lon    *float64 `json:"lon"`
	Error  string   `json:"error"`
}

// checkAnswer returns "" when the response is right for one of the
// allowed artifacts (a bit set over arts), else what is wrong with it.
func checkAnswer(req *request, r *result, arts []artifact, allowed uint) string {
	if r.err != nil {
		return r.err.Error()
	}
	var first string
	for i, a := range arts {
		if allowed&(1<<i) == 0 {
			continue
		}
		msg := checkAgainst(req, r, a.ds)
		if msg == "" {
			return ""
		}
		if first == "" {
			first = msg
		}
	}
	return first
}

func checkAgainst(req *request, r *result, ds *dataset.Dataset) string {
	if !req.batch {
		want := http.StatusOK
		a, err := ipaddr.Parse(req.ips[0])
		var rec dataset.Record
		var found bool
		if err != nil {
			want = http.StatusBadRequest
		} else if rec, found = ds.Find(a); !found {
			want = http.StatusNotFound
		}
		if r.status != want {
			return fmt.Sprintf("GET /lookup?ip=%s: status %d, want %d", req.ips[0], r.status, want)
		}
		var ans lookupAnswer
		if err := json.Unmarshal(r.body, &ans); err != nil {
			return fmt.Sprintf("GET /lookup?ip=%s: %v", req.ips[0], err)
		}
		return checkItem(req.ips[0], &ans, rec, found, err == nil)
	}
	if r.status != http.StatusOK {
		return fmt.Sprintf("POST /batch: status %d", r.status)
	}
	var body struct {
		Results []lookupAnswer `json:"results"`
	}
	if err := json.Unmarshal(r.body, &body); err != nil {
		return fmt.Sprintf("POST /batch: %v", err)
	}
	if len(body.Results) != len(req.ips) {
		return fmt.Sprintf("POST /batch: %d results for %d inputs", len(body.Results), len(req.ips))
	}
	for i, ip := range req.ips {
		a, err := ipaddr.Parse(ip)
		var rec dataset.Record
		var found bool
		if err == nil {
			rec, found = ds.Find(a)
		}
		if msg := checkItem(ip, &body.Results[i], rec, found, err == nil); msg != "" {
			return "POST /batch item: " + msg
		}
	}
	return ""
}

// checkItem checks one answer: an error for malformed and uncovered
// inputs, the covering record's prefix and location otherwise.
func checkItem(ip string, ans *lookupAnswer, rec dataset.Record, found, valid bool) string {
	if !valid || !found {
		if ans.Error == "" || ans.Lat != nil || ans.Lon != nil {
			return fmt.Sprintf("%s: want an error without a location, got %+v", ip, *ans)
		}
		return ""
	}
	lat, lon := 0.0, 0.0
	if ans.Lat != nil {
		lat = *ans.Lat
	}
	if ans.Lon != nil {
		lon = *ans.Lon
	}
	if ans.Error != "" || ans.IP != ip || ans.Prefix != rec.Prefix.String() ||
		lat != rec.Centroid.Lat || lon != rec.Centroid.Lon {
		return fmt.Sprintf("%s: got %s %s (%v, %v), want %s (%v, %v)", ip, ans.IP, ans.Prefix, lat, lon,
			rec.Prefix, rec.Centroid.Lat, rec.Centroid.Lon)
	}
	return ""
}

// server is one running geoserve process.
type server struct {
	cmd    *exec.Cmd
	exited chan error
	addr   string
	setup  float64 // seconds from start until the first /readyz 200
}

// startServer launches geoserve on artifact with only the -dataset, -addr
// and -admin-token flags, and waits until /readyz answers 200.
func startServer(bin, artifact string) (*server, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &server{
		cmd:    exec.Command(bin, "-dataset", artifact, "-addr", addr, "-admin-token", adminToken),
		exited: make(chan error, 1),
		addr:   addr,
	}
	// geoserve dies with the harness, even if the harness is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start geoserve: %w", err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for time.Since(start) < 60*time.Second {
		resp, err := client.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.setup = elapsed(start)
				return s, nil
			}
		}
		select {
		case err := <-s.exited:
			s.exited <- err
			return nil, fmt.Errorf("geoserve exited before it was ready: %v", err)
		default:
			// A kernel sleep: time.After would round the poll to about a
			// millisecond, a large share of a start that takes a few.
			sleepUntil(time.Now().Add(200 * time.Microsecond))
		}
	}
	s.stop()
	return nil, errors.New("geoserve not ready within 60 s")
}

// stop kills the process and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Kill()
	err := <-s.exited
	s.exited <- err
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// rssSampler tracks the peak RssAnon of a process: its private resident
// memory, leaving out file-backed pages such as a mapped artifact.
type rssSampler struct {
	stopc   chan struct{}
	done    chan struct{}
	peak    uint64
	samples int
}

func startRSSSampler(pid int) *rssSampler {
	r := &rssSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	path := fmt.Sprintf("/proc/%d/status", pid)
	go func() {
		defer close(r.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			if v, err := rssAnon(path); err == nil {
				r.peak = max(r.peak, v)
				r.samples++
			}
			select {
			case <-r.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return r
}

// stop ends sampling and returns the peak in bytes and the sample count.
func (r *rssSampler) stop() (uint64, int) {
	close(r.stopc)
	<-r.done
	return r.peak, r.samples
}

// rssAnon reads the RssAnon line of a /proc/<pid>/status file.
func rssAnon(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "RssAnon:"); ok {
			kb, err := strconv.ParseUint(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, errors.New("no RssAnon in " + path)
}

// serverMetrics are the /metrics figures the benchmark reads.
type serverMetrics struct {
	latencySum, latencyCount float64
	shed, swaps              float64
}

// scrape reads geoserve's /metrics.
func scrape(client *http.Client, addr string) (serverMetrics, error) {
	var m serverMetrics
	resp, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		return m, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
			rest = line[strings.LastIndexByte(line, ' ')+1:]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		switch name {
		case "geoserve_latency_ms_sum":
			m.latencySum = v
		case "geoserve_latency_ms_count":
			m.latencyCount = v
		case "geoserve_shed_total":
			m.shed = v
		case "geoserve_swaps_total":
			m.swaps = v
		}
	}
	if err := sc.Err(); err != nil {
		return m, fmt.Errorf("scrape /metrics: %w", err)
	}
	return m, nil
}

// swapEvent is one POST /admin/reload: when it was sent and answered,
// and which artifact it switched to.
type swapEvent struct {
	start, end time.Time
	to         int
	err        error
}

// swapper alternates the served artifact every swapEvery.
type swapper struct {
	stopc  chan struct{}
	done   chan struct{}
	events []swapEvent
}

func startSwapper(client *http.Client, addr string, arts []artifact) *swapper {
	s := &swapper{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		cur := 0
		for {
			select {
			case <-s.stopc:
				return
			case <-time.After(swapEvery):
			}
			to := (cur + 1) % len(arts)
			e := swapEvent{start: time.Now(), to: to}
			e.err = reload(client, addr, arts[to].path)
			e.end = time.Now()
			s.events = append(s.events, e)
			if e.err == nil {
				cur = to
			}
		}
	}()
	return s
}

// stop ends the swaps and returns each reload's latency in ms.
func (s *swapper) stop() []float64 {
	close(s.stopc)
	<-s.done
	var ms []float64
	for _, e := range s.events {
		ms = append(ms, float64(e.end.Sub(e.start))/1e6)
	}
	return ms
}

func reload(client *http.Client, addr, path string) error {
	body, _ := json.Marshal(map[string]string{"path": path})
	req, err := http.NewRequest(http.MethodPost, "http://"+addr+"/admin/reload", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	req.Header.Set("X-Admin-Token", adminToken)
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// allowedArtifacts returns the artifacts (a bit set) whose answer is
// right for a request in flight over [sent, done]: the one serving
// before any overlapping reload, and every one a reload in flight during
// the request may have switched to.
func allowedArtifacts(events []swapEvent, sent, done time.Time) uint {
	cur := 0
	var allowed uint
	for _, e := range events {
		switch {
		case e.end.Before(sent):
			if e.err == nil {
				cur = e.to
			}
		case e.start.Before(done):
			allowed |= 1 << e.to
		}
	}
	return allowed | 1<<cur
}

// layerServe times the serving layers in process, without a socket, over
// the workload's own artifacts and inputs: Server.Reload, Find on the
// current artifact, ipaddr.Parse, and the full handler.
func layerServe(rc *runCtx, arts []artifact, gen *inputGen) error {
	srv := serve.New(serve.Config{AdminToken: adminToken}, telemetry.New())
	var reloads []float64
	for i := 0; i < 8; i++ {
		sp := rc.tr.start("serve.Server.Reload", 0)
		t := time.Now()
		if _, err := srv.Reload(arts[i%len(arts)].path); err != nil {
			return fmt.Errorf("in-process reload: %w", err)
		}
		reloads = append(reloads, float64(time.Since(t))/1e6)
		rc.tr.end(sp)
	}
	rc.set("serve.reload_ms", median(reloads), "ms", len(reloads), "Server.Reload in process, median")

	reqs := gen.requests(20_000)
	var raw []string
	var addrs []ipaddr.Addr
	for _, r := range reqs {
		for _, ip := range r.ips {
			raw = append(raw, ip)
			if a, err := ipaddr.Parse(ip); err == nil {
				addrs = append(addrs, a)
			}
		}
	}
	art := srv.Current()
	rc.set("serve.find_ns", nsPerCall(rc, "serve.Artifact.Find", len(addrs), func(i int) {
		art.Find(addrs[i])
	}), "ns", len(addrs), "Server.Current().Find over the workload's addresses")
	rc.set("ipaddr.parse_ns", nsPerCall(rc, "ipaddr.Parse", len(raw), func(i int) {
		ipaddr.Parse(raw[i])
	}), "ns", len(raw), "over the workload's raw inputs")

	h := srv.Handler()
	httpReqs := make([]*http.Request, len(reqs))
	for i, r := range reqs {
		if r.batch {
			httpReqs[i] = httptest.NewRequest(http.MethodPost, "/batch", strings.NewReader(string(r.body)))
		} else {
			httpReqs[i] = httptest.NewRequest(http.MethodGet, "/lookup?ip="+r.ips[0], nil)
		}
	}
	ns := nsPerCall(rc, "serve.Handler.ServeHTTP", len(reqs), func(i int) {
		req := httpReqs[i]
		if reqs[i].batch {
			req = req.Clone(context.Background())
			req.Body = readCloser{strings.NewReader(string(reqs[i].body))}
		}
		h.ServeHTTP(httptest.NewRecorder(), req)
	})
	rc.set("serve.handler_us", ns/1e3, "us", len(reqs), "Handler().ServeHTTP in process, no socket")
	return nil
}

type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }

// nsPerCall runs f over 0..n-1, repeating for at least 200 ms, and
// returns the mean time per call.
func nsPerCall(rc *runCtx, name string, n int, f func(i int)) float64 {
	if n == 0 {
		return math.NaN()
	}
	sp := rc.tr.start(name, 0)
	defer rc.tr.end(sp)
	calls := 0
	start := time.Now()
	for calls == 0 || time.Since(start) < 200*time.Millisecond {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}

// spreadOf summarises samples as min / median / max and their count.
func spreadOf(v []float64) string {
	s := sortedCopy(v)
	return fmt.Sprintf("min %.4g median %.4g max %.4g (n=%d)", s[0], median(s), s[len(s)-1], len(s))
}
