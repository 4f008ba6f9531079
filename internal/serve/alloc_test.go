package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// discard is a ResponseWriter that keeps the status and drops the body, so
// the client side of a measured request allocates nothing.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(code int)        { d.code = code }

// TestRequestAllocBudget holds each kernel endpoint's steady-state heap
// allocation per request under a ceiling: everything the handler and the
// runtime allocate for it, averaged over 200 requests on a Workers(2)
// runtime after the free list has warmed up. Each ceiling is about twice
// what the endpoint measured with its instances recycled (5.7, 28.5 and
// 35.6 KB); building a fresh instance per request costs 150–300 KB, so a
// request path that stops recycling fails here.
func TestRequestAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are not representative under -race")
	}
	const warm, n = 20, 200
	srv, _ := newTestServer(t)
	for _, c := range []struct {
		path    string
		ceiling uint64 // bytes per request
	}{
		{"/v1/rotate", 12 << 10},
		{"/v1/rgbcmy", 56 << 10},
		{"/v1/h264dec", 72 << 10},
	} {
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		w := &discard{h: http.Header{}}
		serve := func() {
			clear(w.h)
			w.code = 0
			srv.Handler().ServeHTTP(w, req)
			if w.code != http.StatusOK {
				t.Fatalf("%s: status %d", c.path, w.code)
			}
		}
		for range warm {
			serve()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range n {
			serve()
		}
		runtime.ReadMemStats(&after)
		perReq := (after.TotalAlloc - before.TotalAlloc) / n
		allocs := (after.Mallocs - before.Mallocs) / n
		t.Logf("%s: %d B, %d allocs per request (ceiling %d B)", c.path, perReq, allocs, c.ceiling)
		if perReq > c.ceiling {
			t.Errorf("%s: %d bytes per request, ceiling %d", c.path, perReq, c.ceiling)
		}
	}
}
