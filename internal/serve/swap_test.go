package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"geoloc/internal/core"
	"geoloc/internal/dataset"
	"geoloc/internal/ipaddr"
	"geoloc/internal/telemetry"
	"geoloc/internal/world"
)

// tinyVariantDataset is the tiny campaign compiled WITHOUT unsanitized
// records — a genuinely different artifact (fewer records) from the same
// campaign, which is exactly what rotating a re-released dataset looks
// like.
var (
	variantOnce sync.Once
	variantDS   *dataset.Dataset
)

func tinyVariantDataset() *dataset.Dataset {
	variantOnce.Do(func() {
		c := core.NewCampaign(world.TinyConfig())
		variantDS = dataset.Compile(c, dataset.Options{})
	})
	return variantDS
}

// TestSwapGenerationAndRollback pins the swap contract: Publish bumps
// the generation, a Reload of a bad artifact keeps the old one serving
// (rollback by non-publish) and counts a swap failure.
func TestSwapGenerationAndRollback(t *testing.T) {
	reg := telemetry.New()
	sw := NewSwapper(reg)
	if sw.Current() != nil || sw.Generation() != 0 {
		t.Fatal("fresh swapper should have no artifact, generation 0")
	}
	a1 := sw.Publish(tinyDataset(), "v1")
	if a1.Gen != 1 || sw.Generation() != 1 {
		t.Fatalf("first publish generation = %d, want 1", a1.Gen)
	}
	a2 := sw.Publish(tinyVariantDataset(), "v2")
	if a2.Gen != 2 || sw.Current() != a2 {
		t.Fatalf("second publish generation = %d, want 2 and current", a2.Gen)
	}

	dir := t.TempDir()
	// A corrupt file: valid magic, garbage after.
	bad := filepath.Join(dir, "bad.geodset")
	if err := os.WriteFile(bad, []byte(dataset.Magic+"garbage-not-frames"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.Reload(bad); err == nil {
		t.Fatal("reload of corrupt artifact succeeded")
	}
	if _, err := sw.Reload(filepath.Join(dir, "missing.geodset")); err == nil {
		t.Fatal("reload of missing file succeeded")
	}
	if sw.Current() != a2 || sw.Generation() != 2 {
		t.Fatal("failed reload must leave the old artifact serving")
	}
	if got := reg.Counter("geoserve.swap_failures").Value(); got != 2 {
		t.Errorf("swap_failures = %d, want 2", got)
	}
	if got := reg.Counter("geoserve.swaps").Value(); got != 2 {
		t.Errorf("swaps = %d, want 2", got)
	}

	// A good file swaps in and bumps past the failures.
	good := filepath.Join(dir, "good.geodset")
	if err := tinyDataset().Write(good); err != nil {
		t.Fatal(err)
	}
	a3, err := sw.Reload(good)
	if err != nil {
		t.Fatal(err)
	}
	if a3.Gen != 3 || a3.Source != good {
		t.Fatalf("reload generation = %d source = %q, want 3 %q", a3.Gen, a3.Source, good)
	}
}

// TestAdminReload drives the guarded HTTP reload path: auth required,
// constant-time token check, reload from an explicit path, reload in
// place, and 422 + rollback on a rejected artifact.
func TestAdminReload(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.geodset")
	v2 := filepath.Join(dir, "v2.geodset")
	bad := filepath.Join(dir, "bad.geodset")
	if err := tinyDataset().Write(v1); err != nil {
		t.Fatal(err)
	}
	if err := tinyVariantDataset().Write(v2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(bad, []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{AdminToken: "s3cret"}, telemetry.New())
	srv.Publish(tinyDataset(), v1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reload := func(token, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/admin/reload", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if token != "" {
			req.Header.Set("X-Admin-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if status, _ := reload("", ""); status != http.StatusForbidden {
		t.Fatalf("no token: status = %d, want 403", status)
	}
	if status, _ := reload("wrong", ""); status != http.StatusForbidden {
		t.Fatalf("bad token: status = %d, want 403", status)
	}
	if status, _ := get(t, ts.URL+"/admin/reload"); status != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: status = %d, want 405", status)
	}

	// Explicit path swap to the variant artifact.
	status, body := reload("s3cret", fmt.Sprintf(`{"path":%q}`, v2))
	if status != http.StatusOK || !strings.Contains(body, `"generation":2`) {
		t.Fatalf("reload v2 = %d %s, want 200 generation 2", status, body)
	}
	if got := len(srv.Current().DS.Records); got != len(tinyVariantDataset().Records) {
		t.Errorf("serving %d records after swap, want %d", got, len(tinyVariantDataset().Records))
	}

	// Reload in place (empty body) re-reads the active source.
	status, body = reload("s3cret", "")
	if status != http.StatusOK || !strings.Contains(body, `"generation":3`) {
		t.Fatalf("reload in place = %d %s, want 200 generation 3", status, body)
	}

	// A rejected artifact answers 422 and the old one keeps serving.
	status, body = reload("s3cret", fmt.Sprintf(`{"path":%q}`, bad))
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("reload bad = %d %s, want 422", status, body)
	}
	if srv.Current().Gen != 3 {
		t.Errorf("generation after rejected reload = %d, want 3", srv.Current().Gen)
	}
	if status, _ := get(t, ts.URL+"/lookup?ip=10.0.0.7"); status != http.StatusOK {
		t.Errorf("lookup after rejected reload = %d, want 200", status)
	}

	// With no token configured the endpoint is disabled outright.
	off := newPublished(Config{})
	rec := httptest.NewRecorder()
	off.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/reload", nil))
	if rec.Code != http.StatusForbidden {
		t.Errorf("reload with admin disabled = %d, want 403", rec.Code)
	}
}

// TestConcurrentTrafficDuringSwaps is the hot-swap race test (run under
// -race in CI): sustained /lookup and /batch traffic while the artifact
// is republished dozens of times, both in-process and through the
// guarded HTTP reload. Every response must be a designed status — a 5xx
// or a torn read would mean a request observed a half-swapped pair.
func TestConcurrentTrafficDuringSwaps(t *testing.T) {
	dir := t.TempDir()
	v1 := filepath.Join(dir, "v1.geodset")
	v2 := filepath.Join(dir, "v2.geodset")
	if err := tinyDataset().Write(v1); err != nil {
		t.Fatal(err)
	}
	if err := tinyVariantDataset().Write(v2); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{AdminToken: "tok"}, telemetry.New())
	srv.Publish(tinyDataset(), v1)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const (
		workers       = 8
		perWorker     = 150
		directSwaps   = 25
		httpSwaps     = 15
		expectSwapGen = 1 + directSwaps + httpSwaps
	)
	var bad atomic.Int64
	var wg sync.WaitGroup

	// Swapper 1: direct in-process publishes alternating artifacts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < directSwaps; i++ {
			if i%2 == 0 {
				srv.Publish(tinyVariantDataset(), "mem:v2")
			} else {
				srv.Publish(tinyDataset(), "mem:v1")
			}
		}
	}()

	// Swapper 2: HTTP reloads through the admin endpoint.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < httpSwaps; i++ {
			path := v1
			if i%2 == 0 {
				path = v2
			}
			req, _ := http.NewRequest(http.MethodPost, ts.URL+"/admin/reload",
				strings.NewReader(fmt.Sprintf(`{"path":%q}`, path)))
			req.Header.Set("X-Admin-Token", "tok")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				bad.Add(1)
				continue
			}
			if resp.StatusCode != http.StatusOK {
				bad.Add(1)
			}
			resp.Body.Close()
		}
	}()

	// Traffic: lookups (hit, miss, garbage) and batches, continuously.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{}
			for i := 0; i < perWorker; i++ {
				switch i % 3 {
				case 0:
					resp, err := client.Get(ts.URL + fmt.Sprintf("/lookup?ip=10.0.%d.%d", i%8, (w*31+i)%256))
					if err != nil || (resp.StatusCode != 200 && resp.StatusCode != 404) {
						bad.Add(1)
					}
					if err == nil {
						resp.Body.Close()
					}
				case 1:
					resp, err := client.Post(ts.URL+"/batch", "application/json",
						strings.NewReader(fmt.Sprintf(`{"ips":["10.0.0.%d","192.0.2.1","10.0.5.%d"]}`, i%256, i%256)))
					if err != nil || resp.StatusCode != 200 {
						bad.Add(1)
					}
					if err == nil {
						resp.Body.Close()
					}
				case 2:
					resp, err := client.Get(ts.URL + "/version")
					if err != nil || resp.StatusCode != 200 {
						bad.Add(1)
					}
					if err == nil {
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Wait()

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d requests failed during hot-swaps", n)
	}
	if gen := srv.Current().Gen; gen != expectSwapGen {
		t.Errorf("final generation = %d, want %d", gen, expectSwapGen)
	}
}

// writeV2File serializes a dataset through Writer2 into dir.
func writeV2File(t *testing.T, ds *dataset.Dataset, dir, name string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	w, err := dataset.NewWriter2(path, ds.Hdr, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Records {
		if err := w.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMmapHotSwapUnderLoad hammers /lookup while mapped GEODSET2
// artifacts hot-swap underneath: every swap closes the retired mapping
// as soon as its last pinned request drains (generation-pinned munmap),
// so under -race this proves in-flight lookups never touch a mapping
// after it is released and never see a mixed generation. Answers must
// stay 200/404 throughout — a 5xx means a request caught a dead reader.
func TestMmapHotSwapUnderLoad(t *testing.T) {
	dir := t.TempDir()
	pathA := writeV2File(t, tinyDataset(), dir, "a.geodset2")
	pathB := writeV2File(t, tinyVariantDataset(), dir, "b.geodset2")

	srv := New(Config{}, telemetry.New())
	if _, err := srv.Reload(pathA); err != nil {
		t.Fatal(err)
	}

	hit := tinyDataset().Records[0].Prefix.Addr(3).String()
	targets := []string{"/lookup?ip=" + hit, "/lookup?ip=203.0.113.9"}

	var stop atomic.Bool
	var failures atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				req := httptest.NewRequest(http.MethodGet, targets[g%len(targets)], nil)
				rec := httptest.NewRecorder()
				srv.handleLookup(rec, req)
				if c := rec.Code; c != http.StatusOK && c != http.StatusNotFound {
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 60; i++ {
		path := pathA
		if i%2 == 1 {
			path = pathB
		}
		if _, err := srv.Reload(path); err != nil {
			t.Errorf("swap %d: %v", i, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed during mapped hot-swaps", n)
	}
}

// TestTruncateUnderLoad: an operator truncates the live GEODSET2 file in
// place (the first step of `cp new.geodset2 live.geodset2`) while
// /lookup traffic runs against its mapping. Lookups that land on the
// lost pages must answer 503 through the reader's fault guard; every
// answer stays 200, 404 or 503, and the process survives to serve the
// blocks the file still backs.
func TestTruncateUnderLoad(t *testing.T) {
	ds := &dataset.Dataset{Hdr: dataset.Header{Seed: 5, Profile: "truncate"}}
	for i := 0; i < 4000; i++ { // ~120 KB: dozens of pages
		ds.Records = append(ds.Records, dataset.Record{
			Prefix:   ipaddr.Prefix24(0x0A0000 + i),
			RadiusKm: float64(i % 700),
			Method:   dataset.MethodCBG,
		})
	}
	path := writeV2File(t, ds, t.TempDir(), "live.geodset2")
	srv := New(Config{}, telemetry.New())
	if _, err := srv.Reload(path); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	lookup := func(rec dataset.Record) int {
		req := httptest.NewRequest(http.MethodGet, "/lookup?ip="+rec.Prefix.Addr(1).String(), nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}

	var stop atomic.Bool
	var off, answered atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; !stop.Load(); i += 7 {
				switch c := lookup(ds.Records[i%len(ds.Records)]); c {
				case http.StatusOK, http.StatusNotFound, http.StatusServiceUnavailable:
					answered.Add(1)
				default:
					off.Add(1)
					t.Errorf("status %d under truncation", c)
					return
				}
			}
		}(g)
	}
	// awaitAnswers spins until the workers have answered n more
	// requests (or one of them gave up on an off-design status).
	awaitAnswers := func(n int64) {
		for target := answered.Load() + n; answered.Load() < target && off.Load() == 0; {
			runtime.Gosched()
		}
	}
	awaitAnswers(500)
	if err := os.Truncate(path, 8192); err != nil {
		t.Fatal(err)
	}
	awaitAnswers(2000)
	stop.Store(true)
	wg.Wait()
	if n := off.Load(); n != 0 {
		t.Fatalf("%d off-design answers", n)
	}
	if c := lookup(ds.Records[len(ds.Records)-1]); c != http.StatusServiceUnavailable {
		t.Fatalf("lookup past the cut answered %d, want 503", c)
	}
	if c := lookup(ds.Records[0]); c != http.StatusOK {
		t.Fatalf("lookup before the cut answered %d, want 200", c)
	}
}
