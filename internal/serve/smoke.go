package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The smoke is a pass/fail gate over HTTP, not a measurement: the measured
// service numbers are the benchmark's serve-mix workload. Closed-loop
// clients, each with one tenant class, walk the kernel endpoints and send
// /v1/fault every seventh request (their first included, so a short run
// still fires it). Each client judges every answer itself. Expected are a
// 200 from a kernel path, a 500 from /v1/fault, and a 429 or 503 carrying
// Retry-After from any path, after which the client waits as long as asked
// or until the run ends. Anything else fails the run: a kernel 500 (the
// server's isolation-violation answer), a 200 from /v1/fault, a refusal
// without Retry-After, a transport error.

// smokeClients is the number of closed-loop clients Smoke runs.
const smokeClients = 8

// Smoke runs the smoke against the server at base URL target for d and
// writes its tally to w. It fails on any unexpected answer, naming the
// first, and when no kernel request answered 200.
func Smoke(w io.Writer, target string, d time.Duration) error {
	t := smoke(target, smokeClients, d)
	fmt.Fprintln(w, t)
	return t.err()
}

// tally counts one smoke run's answers by class.
type tally struct {
	requests, ok, faults, refused, failures int
	first                                   string // the first failure
}

func smoke(target string, clients int, d time.Duration) *tally {
	paths := []string{"/v1/rotate", "/v1/rgbcmy", "/v1/h264dec"}
	tenants := []string{"gold", "silver", "bronze"}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = clients
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	deadline := time.Now().Add(d)
	var (
		mu  sync.Mutex
		all tally
		wg  sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			for i := 0; time.Now().Before(deadline); i++ {
				path := paths[(c+i)%len(paths)]
				if i%7 == 0 {
					path = "/v1/fault"
				}
				wait := t.ask(hc, target, path, tenants[c%len(tenants)])
				time.Sleep(min(wait, time.Until(deadline)))
			}
			mu.Lock()
			all.add(&t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return &all
}

// ask sends one request and books its answer. It returns how long the
// server asked the client to wait before its next request.
func (t *tally) ask(hc *http.Client, target, path, tenant string) time.Duration {
	t.requests++
	req, err := http.NewRequest(http.MethodGet, target+path, nil)
	if err != nil {
		t.fail(fmt.Sprintf("%s: %v", path, err))
		return 0
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := hc.Do(req)
	if err != nil {
		t.fail(fmt.Sprintf("%s: %v", path, err))
		return 0
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fault := path == "/v1/fault"
	switch code := resp.StatusCode; {
	case code == http.StatusOK && !fault:
		t.ok++
	case code == http.StatusInternalServerError && fault:
		t.faults++
	case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs >= 0 {
			t.refused++
			return time.Duration(secs) * time.Second
		}
		fallthrough
	default:
		excerpt := strings.TrimSpace(string(body[:min(len(body), 160)]))
		t.fail(fmt.Sprintf("%s: status %d: %s", path, code, excerpt))
	}
	return 0
}

func (t *tally) fail(what string) {
	if t.failures == 0 {
		t.first = what
	}
	t.failures++
}

func (t *tally) add(o *tally) {
	if t.failures == 0 {
		t.first = o.first
	}
	t.requests += o.requests
	t.ok += o.ok
	t.faults += o.faults
	t.refused += o.refused
	t.failures += o.failures
}

func (t *tally) String() string {
	return fmt.Sprintf("smoke: %d requests: %d kernel 200, %d fault 500, %d refused with Retry-After, %d failures",
		t.requests, t.ok, t.faults, t.refused, t.failures)
}

func (t *tally) err() error {
	switch {
	case t.failures > 0:
		return fmt.Errorf("smoke: %d unexpected answers; first %s", t.failures, t.first)
	case t.ok == 0:
		return errors.New("smoke: no kernel request answered 200")
	}
	return nil
}
