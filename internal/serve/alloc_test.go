package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"geoloc/internal/dataset"
	"geoloc/internal/ipaddr"
	"geoloc/internal/telemetry"
)

// discardWriter is an http.ResponseWriter that costs nothing: headers
// are pre-allocated and the body is dropped, so AllocsPerRun measures
// the handler, not the recorder.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// writeMappedServer publishes the tiny dataset as a mapped GEODSET2
// artifact on a fresh server.
func writeMappedServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	ds := tinyDataset()
	path := filepath.Join(t.TempDir(), "tiny.geodset2")
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
	srv := New(cfg, telemetry.New())
	if _, err := srv.Reload(path); err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServeAllocs is the hot-path allocation gate (DESIGN.md §3.10): a
// steady-state /lookup — artifact pin, query parse, resolve, JSON
// render, write — performs zero heap allocations per request, for both
// the in-RAM artifact and the mapped GEODSET2 reader, on hits and
// misses alike. CI runs this test by name (make allocs-smoke), so an
// allocation regressing into the hot path fails the build, not just a
// benchmark trend.
func TestServeAllocs(t *testing.T) {
	ds := tinyDataset()
	hitIP := ds.Records[0].Prefix.Addr(7).String()
	const missIP = "203.0.113.9"

	servers := []struct {
		name string
		srv  *Server
	}{
		{"in-ram", newPublished(Config{})},
		{"mapped", writeMappedServer(t, Config{})},
	}
	for _, sc := range servers {
		for _, tc := range []struct {
			name, ip string
		}{
			{"hit", hitIP},
			{"miss", missIP},
		} {
			t.Run(sc.name+"/"+tc.name, func(t *testing.T) {
				req := httptest.NewRequest(http.MethodGet, "/lookup?ip="+tc.ip, nil)
				w := &discardWriter{h: make(http.Header)}
				sc.srv.handleLookup(w, req) // prime: first-touch verify, caches, pool
				if n := testing.AllocsPerRun(200, func() {
					sc.srv.handleLookup(w, req)
				}); n != 0 {
					t.Errorf("steady-state /lookup (%s %s) allocates %.1f per request, want 0",
						sc.name, tc.name, n)
				}
			})
		}
	}

	// The batch core — resolve + render per address over one pinned
	// snapshot — is equally allocation-free. The full handler pays one
	// unavoidable decode of the request JSON; everything after it is
	// gated here.
	for _, sc := range servers {
		t.Run(sc.name+"/batch-core", func(t *testing.T) {
			addrs := []ipaddr.Addr{
				ds.Records[0].Prefix.Addr(1),
				ds.Records[len(ds.Records)/2].Prefix.Addr(9),
				ipaddr.MustParse(missIP),
			}
			ctx := context.Background()
			art := sc.srv.acquire()
			if art == nil {
				t.Fatal("no artifact")
			}
			defer art.release()
			render := func() {
				buf := getBuf()
				b := append(buf.b[:0], `{"results":[`...)
				for i, a := range addrs {
					if i > 0 {
						b = append(b, ',')
					}
					rec, kind := sc.srv.resolveRec(ctx, art, a)
					b = appendLookupResult(b, a, rec, kind)
				}
				buf.b = append(b, "]}\n"...)
				putBuf(buf)
			}
			render() // prime
			if n := testing.AllocsPerRun(200, render); n != 0 {
				t.Errorf("batch core (%s) allocates %.1f per batch, want 0", sc.name, n)
			}
		})
	}
}

// TestLookupGoldenEquivalence cross-checks the hand renderer against
// encoding/json on awkward inputs: the golden tests pin the common
// shapes, this pins the escaping corners (HTML characters, control
// bytes, invalid UTF-8) the hand renderer must handle identically.
func TestLookupGoldenEquivalence(t *testing.T) {
	for _, s := range []string{
		"plain", `quote"back\slash`, "tab\tnl\nret\r", "html<&>", "ctl\x01\x1f",
		"utf8 é  ", "bad\xffutf8", "",
	} {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(appendJSONString(nil, s)); got != string(want) {
			t.Errorf("appendJSONString(%q) = %s, encoding/json says %s", s, got, want)
		}
	}
	for _, f := range []float64{0, 1, -1.5, 48.858844, -122.031, 1e-7, 3e21, 6378.137, 0.25} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(appendJSONFloat(nil, f)); got != string(want) {
			t.Errorf("appendJSONFloat(%v) = %s, encoding/json says %s", f, got, want)
		}
	}
}
