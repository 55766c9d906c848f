package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"geoloc/internal/dataset"
	"geoloc/internal/geo"
	"geoloc/internal/ipaddr"
)

// A server that stalls once for 200 ms must charge that wait to every
// request that was due while it lasted, not only to the one it held.
func TestOpenLoopChargesStallToRequestsDueDuringIt(t *testing.T) {
	const stallAt, stall = 100, 200 * time.Millisecond
	var mu sync.Mutex
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if n.Add(1) == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	load := newHTTPConns(srv.Listener.Addr().String(), 2)
	defer load.close()

	reqs := make([]request, 400)
	for i := range reqs {
		reqs[i] = lookupRequest("1.2.3.4")
	}
	sched := poissonSchedule(rand.New(rand.NewPCG(1, 2)), len(reqs), 500)
	_, res := openLoop(load.send, reqs, sched, 2)

	var held *result
	for i := range res {
		if res[i].done-res[i].sent >= stall {
			held = &res[i]
		}
	}
	if held == nil {
		t.Fatal("no request observed the stall")
	}
	checked := 0
	for _, r := range res {
		if r.due <= held.sent+10*time.Millisecond || r.due >= held.done-10*time.Millisecond {
			continue
		}
		checked++
		if want := held.done - r.due - 2*time.Millisecond; r.latency() < want {
			t.Errorf("request due %v into the stall: latency %v, want >= %v", r.due-held.sent, r.latency(), want)
		}
	}
	if checked < 50 {
		t.Fatalf("only %d requests were due during the stall", checked)
	}
}

func TestTailPicksHighestPercentileWithTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n       int
		wantPct float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{40, 75}, {24, 50}, {20, 50}, {19, 100}, {1, 100},
	} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(c.n - i) // reversed: tail must sort
		}
		pct, v, n := tail(s)
		if pct != c.wantPct || n != c.n {
			t.Errorf("n=%d: got p%g n=%d, want p%g n=%d", c.n, pct, n, c.wantPct, c.n)
			continue
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if pct < 100 && beyond < 10 {
			t.Errorf("n=%d: p%g = %g has %d samples beyond it", c.n, pct, v, beyond)
		}
	}
}

// stubArtifact is a small in-memory oracle: three covered /24s.
func stubArtifact() []artifact {
	ds := &dataset.Dataset{}
	for i := 0; i < 3; i++ {
		ds.Records = append(ds.Records, dataset.Record{
			Prefix:    base + ipaddr.Prefix24(2*i),
			Centroid:  geo.Point{Lat: 10 + float64(i), Lon: 20 + float64(i)},
			RadiusKm:  5,
			Method:    dataset.MethodCBG,
			Sanitized: true,
		})
	}
	return []artifact{{path: "stub", ds: ds}}
}

// A server answering one lookup with a wrong location must show up in
// fail_frac and make the run incorrect.
func TestWrongLocationCountsAsFailure(t *testing.T) {
	arts := stubArtifact()
	rec := arts[0].ds.Records[1]
	wrongIP := rec.Prefix.Addr(7).String()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ip := r.URL.Query().Get("ip")
		a, err := ipaddr.Parse(ip)
		if err != nil {
			w.WriteHeader(http.StatusBadRequest)
			fmt.Fprintf(w, `{"error":%q}`, err.Error())
			return
		}
		got, ok := arts[0].ds.Find(a)
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprintf(w, `{"ip":%q,"error":"no record covers this address"}`, ip)
			return
		}
		lat := got.Centroid.Lat
		if ip == wrongIP {
			lat += 0.5
		}
		fmt.Fprintf(w, `{"ip":%q,"prefix":%q,"lat":%v,"lon":%v}`, ip, got.Prefix.String(), lat, got.Centroid.Lon)
	}))
	defer srv.Close()
	load := newHTTPConns(srv.Listener.Addr().String(), 2)
	defer load.close()

	ips := []string{
		arts[0].ds.Records[0].Prefix.Addr(1).String(), wrongIP,
		(base + 1).Addr(3).String(), "256.1.2.3", arts[0].ds.Records[2].Prefix.Addr(9).String(),
	}
	var reqs []request
	for _, ip := range ips {
		reqs = append(reqs, lookupRequest(ip))
	}
	p := &phase{name: "stub", reqs: reqs}
	p.t0, p.res = openLoop(load.send, reqs, nil, 2)
	rc := &runCtx{metrics: map[string]metric{}}
	sent, ok, failed := verify(rc, []*phase{p}, nil, arts)
	if sent != len(ips) || ok != len(ips)-1 || failed != 1 {
		t.Fatalf("sent %d ok %d failed %d, want %d %d 1; problems %v", sent, ok, failed, len(ips), len(ips)-1, rc.problems)
	}
	if len(rc.problems) != 1 || !strings.Contains(rc.problems[0], wrongIP) {
		t.Fatalf("problems %v, want one naming %s", rc.problems, wrongIP)
	}
	rc.attempted, rc.failed = sent, failed
	rc.set("setup_s", 1, "s", 1, "")
	var out bytes.Buffer
	rc.metrics = map[string]metric{}
	for _, d := range endToEnd {
		rc.set(d.name, 1, d.unit, 1, "")
	}
	if code := report(&out, rc); code == 0 {
		t.Fatal("report exited 0 with a wrong answer")
	}
	if !strings.Contains(out.String(), "fail_frac") || !strings.Contains(out.String(), "0.2 ratio") {
		t.Fatalf("fail_frac 0.2 not reported:\n%s", out.String())
	}
	checkResultLine(t, out.String(), false, len(ips), 1)
}

// A batch output whose digest differs from the recorded one fails the run.
func TestWrongDigestFailsRun(t *testing.T) {
	rc := &runCtx{
		metrics: map[string]metric{},
		digests: map[string]map[string]string{"compile-stream": {"world-seed-1": "aa"}},
	}
	for _, d := range endToEnd {
		rc.set(d.name, 1, d.unit, 1, "")
	}
	rc.attempted = 1
	if rc.checkDigest("compile-stream", "world-seed-1", "bb") {
		t.Fatal("a different digest matched")
	}
	if rc.checkDigest("compile-stream", "world-seed-2", "aa") {
		t.Fatal("a digest with none recorded matched")
	}
	var out bytes.Buffer
	if code := report(&out, rc); code == 0 {
		t.Fatalf("report exited 0 after a digest mismatch:\n%s", out.String())
	}
	checkResultLine(t, out.String(), false, 1, 0)

	ok := &runCtx{metrics: rc.metrics, digests: rc.digests, attempted: 1}
	if !ok.checkDigest("compile-stream", "world-seed-1", "aa") {
		t.Fatal("the recorded digest did not match")
	}
	out.Reset()
	if code := report(&out, ok); code != 0 {
		t.Fatalf("report exited %d on a matching digest:\n%s", code, out.String())
	}
	checkResultLine(t, out.String(), true, 1, 0)
}

// checkResultLine parses the last output line as the JSON result.
func checkResultLine(t *testing.T, out string, correct bool, attempted, failed int) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool                       `json:"correct"`
		Attempted int                        `json:"attempted"`
		Failed    int                        `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	if res.Correct != correct || res.Attempted != attempted || res.Failed != failed || len(res.Metrics) != len(endToEnd) {
		t.Fatalf("result %+v, want correct=%v attempted=%d failed=%d with %d metrics", res, correct, attempted, failed, len(endToEnd))
	}
}
