package serve

// Smoke tests: the smoke passes against a healthy server over loopback
// HTTP, and against stub servers it fails on every answer the contract does
// not allow and waits as long as a refusal's Retry-After asks.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stub serves h on a loopback listener for the test and returns its URL.
func stub(t *testing.T, h http.HandlerFunc) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestSmoke runs the smoke briefly against a real server behind a loopback
// listener: kernel 200s, fault 500s (each client's first request is a
// fault), and nothing else.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("the smoke needs wall-clock time")
	}
	srv, _ := newTestServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	got := smoke(ts.URL, 3, 500*time.Millisecond)
	if err := got.err(); err != nil {
		t.Fatalf("%v (%v)", err, got)
	}
	if got.ok == 0 || got.faults == 0 {
		t.Fatalf("%v: want kernel 200s and fault 500s", got)
	}
	if v := srv.Violations(); v != 0 {
		t.Fatalf("server counted %d isolation violations", v)
	}
}

// TestSmokeFails checks that one kind of unexpected answer, beside
// otherwise healthy ones, fails the run and is named in its error.
func TestSmokeFails(t *testing.T) {
	cases := []struct {
		name, want string
		answer     func(w http.ResponseWriter, path string) bool // false: answer as a healthy server
	}{
		{"kernel-500", "/v1/rotate: status 500", func(w http.ResponseWriter, path string) bool {
			if path != "/v1/rotate" {
				return false
			}
			http.Error(w, `{"error":"isolation violation"}`, http.StatusInternalServerError)
			return true
		}},
		{"fault-200", "/v1/fault: status 200", func(w http.ResponseWriter, path string) bool {
			return path == "/v1/fault" // the zero answer is a 200
		}},
		{"refusal-without-retry-after", "/v1/h264dec: status 503", func(w http.ResponseWriter, path string) bool {
			if path != "/v1/h264dec" {
				return false
			}
			w.WriteHeader(http.StatusServiceUnavailable)
			return true
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			url := stub(t, func(w http.ResponseWriter, req *http.Request) {
				if c.answer(w, req.URL.Path) {
					return
				}
				if req.URL.Path == "/v1/fault" {
					w.WriteHeader(http.StatusInternalServerError)
				}
			})
			got := smoke(url, 2, 200*time.Millisecond)
			err := got.err()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("smoke error %v (%v), want one naming %q", err, got, c.want)
			}
			if got.ok == 0 {
				t.Fatalf("%v: the stub's healthy kernel answers were not counted", got)
			}
		})
	}
}

// TestSmokeHonoursRetryAfter checks that a refused client waits as the
// refusal asks, or until the run ends: against a stub that refuses every
// request for a second, two clients in a 300 ms run send one request each.
func TestSmokeHonoursRetryAfter(t *testing.T) {
	var n atomic.Int64
	url := stub(t, func(w http.ResponseWriter, _ *http.Request) {
		n.Add(1)
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	})
	got := smoke(url, 2, 300*time.Millisecond)
	if n.Load() != 2 || got.refused != 2 || got.failures != 0 {
		t.Fatalf("stub saw %d requests, smoke %v; want 2 refused, no failure", n.Load(), got)
	}
	if err := got.err(); err == nil || !strings.Contains(err.Error(), "no kernel request answered 200") {
		t.Fatalf("smoke error %v, want the zero-200 failure", err)
	}
}
