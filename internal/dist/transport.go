package dist

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Child processes find their way into the worker loop through these
// environment variables: the transport and address to dial, the worker
// slot to claim, and the run's shared secret (hex). The slow-exit
// variable is a test-only fault hook (see withSlowExit).
const (
	envNet      = "OMPSS_DIST_NET"
	envSocket   = "OMPSS_DIST_SOCKET"
	envWorker   = "OMPSS_DIST_WORKER"
	envSecret   = "OMPSS_DIST_SECRET"
	envSlowExit = "OMPSS_DIST_SLOW_EXIT_MS"
	envTrace    = "OMPSS_DIST_TRACE" // per-worker ring capacity; >0 turns on worker-side tracing
)

// DefaultHandshakeTimeout bounds how long the coordinator waits for all
// spawned workers to dial back and authenticate, and each challenge/response
// exchange. It is also the default exit-kill deadline (ExitKillDelay).
const DefaultHandshakeTimeout = 30 * time.Second

// conn wraps one worker connection with a send mutex: the dispatch path,
// the relay-fallback path, and the shutdown path all write frames, and
// frames must not interleave.
type conn struct {
	net.Conn
	sendMu sync.Mutex
}

func (c *conn) send(f *Frame) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	return WriteFrame(c.Conn, f)
}

// newSecret draws a fresh 32-byte shared secret for one run.
func newSecret() ([]byte, error) {
	s := make([]byte, 32)
	if _, err := rand.Read(s); err != nil {
		return nil, fmt.Errorf("dist: secret: %w", err)
	}
	return s, nil
}

// computeMAC is the handshake response: HMAC-SHA256 over the challenge
// nonce and the claimed worker slot under the run's shared secret.
func computeMAC(secret, nonce []byte, slot int) []byte {
	h := hmac.New(sha256.New, secret)
	h.Write(nonce)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(slot)))
	h.Write(b[:])
	return h.Sum(nil)
}

// clockSync is the server-side clock measurement taken around one
// challenge round-trip: mid is the server's clock at the midpoint of the
// exchange (the instant the dialer most plausibly sampled Hello.Now), rtt
// the full round-trip. The NTP-style offset estimate a merge uses is
// mid-since-epoch minus Hello.Now, accurate to ±rtt/2.
type clockSync struct {
	mid time.Time
	rtt time.Duration
}

// challengeConn runs the server half of the connect handshake: send a
// fresh nonce, read the dialer's Hello within the deadline, and verify
// its MAC binds the claimed slot to this connection's nonce. The caller
// owns closing the connection on error. The returned clockSync brackets
// the round-trip for trace clock alignment.
func challengeConn(c net.Conn, secret []byte, timeout time.Duration) (*Hello, clockSync, error) {
	nonce := make([]byte, 32)
	if _, err := rand.Read(nonce); err != nil {
		return nil, clockSync{}, fmt.Errorf("nonce: %w", err)
	}
	c.SetDeadline(time.Now().Add(timeout))
	defer c.SetDeadline(time.Time{})
	t0 := time.Now()
	if err := WriteFrame(c, &Frame{Challenge: &Challenge{Nonce: nonce}}); err != nil {
		return nil, clockSync{}, fmt.Errorf("send challenge: %w", err)
	}
	f, err := ReadFrame(c)
	if err != nil {
		return nil, clockSync{}, fmt.Errorf("read hello: %w", err)
	}
	t1 := time.Now()
	if f.Hello == nil {
		return nil, clockSync{}, fmt.Errorf("first frame is not Hello")
	}
	if !hmac.Equal(f.Hello.MAC, computeMAC(secret, nonce, f.Hello.Worker)) {
		return nil, clockSync{}, fmt.Errorf("bad MAC for claimed slot %d", f.Hello.Worker)
	}
	rtt := t1.Sub(t0)
	return f.Hello, clockSync{mid: t0.Add(rtt / 2), rtt: rtt}, nil
}

// answerChallenge runs the dialer half: read the server's nonce and send
// the authenticated Hello. A non-nil clock is sampled right before the
// Hello is composed and rides in Hello.Now for the server's clock
// alignment; nil leaves Now zero (peer-fetch connections don't trace).
func answerChallenge(c net.Conn, secret []byte, slot int, fetchAddr string, clock func() int64, timeout time.Duration) error {
	c.SetDeadline(time.Now().Add(timeout))
	defer c.SetDeadline(time.Time{})
	f, err := ReadFrame(c)
	if err != nil {
		return fmt.Errorf("read challenge: %w", err)
	}
	if f.Challenge == nil {
		return fmt.Errorf("first frame is not Challenge")
	}
	var now int64
	if clock != nil {
		now = clock()
	}
	return WriteFrame(c, &Frame{Hello: &Hello{
		Worker:    slot,
		PID:       os.Getpid(),
		MAC:       computeMAC(secret, f.Challenge.Nonce, slot),
		FetchAddr: fetchAddr,
		Now:       now,
	}})
}

// listenRendezvous creates the coordinator's rendezvous listener on the
// chosen transport. For the Unix transport the socket lives in a fresh
// short-named temp directory (socket paths have a low length limit);
// cleanup removes it. For TCP it is a loopback port. addr is what workers
// dial ("net:address" form via dialAddr).
func listenRendezvous(transport string) (l net.Listener, addr string, cleanup func(), err error) {
	switch transport {
	case TransportUnix:
		dir, err := os.MkdirTemp("", "ompss-dist-")
		if err != nil {
			return nil, "", nil, err
		}
		path := filepath.Join(dir, "coord.sock")
		l, err := net.Listen("unix", path)
		if err != nil {
			os.RemoveAll(dir)
			return nil, "", nil, fmt.Errorf("dist: listen %s: %w", path, err)
		}
		return l, path, func() { os.RemoveAll(dir) }, nil
	case TransportTCP:
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, "", nil, fmt.Errorf("dist: listen tcp loopback: %w", err)
		}
		return l, l.Addr().String(), func() {}, nil
	}
	return nil, "", nil, fmt.Errorf("dist: unknown transport %q", transport)
}

// dialAddr splits a "net:addr" fetch/rendezvous address. A bare address
// (no prefix) is a Unix socket path for compatibility.
func dialAddr(s string) (network, addr string) {
	if rest, ok := strings.CutPrefix(s, "tcp:"); ok {
		return "tcp", rest
	}
	if rest, ok := strings.CutPrefix(s, "unix:"); ok {
		return "unix", rest
	}
	return "unix", s
}

// spawnWorker re-executes the current binary as worker `slot`. MaybeWorker
// in the child (called before main proper does anything else) sees the
// environment and diverts into the worker loop instead of running main.
func spawnWorker(transport, addr string, slot int, secret []byte, slowExit time.Duration, traceCap int) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("dist: locate own binary: %w", err)
	}
	cmd := exec.Command(self)
	cmd.Env = append(os.Environ(),
		envNet+"="+transport,
		envSocket+"="+addr,
		envWorker+"="+strconv.Itoa(slot),
		envSecret+"="+hex.EncodeToString(secret),
	)
	if slowExit > 0 {
		cmd.Env = append(cmd.Env, envSlowExit+"="+strconv.Itoa(int(slowExit.Milliseconds())))
	}
	if traceCap > 0 {
		cmd.Env = append(cmd.Env, envTrace+"="+strconv.Itoa(traceCap))
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: spawn worker %d: %w", slot, err)
	}
	return cmd, nil
}

// admitted is one worker connection that survived the challenge, along
// with the clock measurement taken during it.
type admitted struct {
	conn  *conn
	hello *Hello
	sync  clockSync
}

// acceptLoop is the rendezvous listener's persistent accept loop: it runs
// for the whole life of the run (not just the initial handshake window),
// which is what lets a restarted worker rejoin. Each accepted connection
// is challenged on its own goroutine, so a peer that connects but never
// completes the handshake (or fails authentication) wastes only its own
// deadline and never blocks a legitimate worker behind it — it is closed
// and dropped without ever reaching the coordinator. The loop exits when
// the listener closes; stop bounds the handshake goroutines at teardown.
func acceptLoop(l net.Listener, secret []byte, hsTimeout time.Duration, admit chan<- admitted, stop <-chan struct{}) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go func(c net.Conn) {
			h, cs, err := challengeConn(c, secret, hsTimeout)
			if err != nil {
				c.Close() // a bad peer is refused, never admitted
				return
			}
			select {
			case admit <- admitted{conn: &conn{Conn: c}, hello: h, sync: cs}:
			case <-stop:
				c.Close()
			}
		}(c)
	}
}

// collectWorkers gathers the initial n authenticated handshakes from the
// accept loop within timeout, indexed by claimed slot. A duplicate or
// out-of-range slot claim is closed without consuming anything.
func collectWorkers(admit <-chan admitted, n int, timeout time.Duration) ([]admitted, error) {
	out := make([]admitted, n)
	got := 0
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for got < n {
		select {
		case a := <-admit:
			slot := a.hello.Worker
			if slot < 0 || slot >= n || out[slot].conn != nil {
				a.conn.Close()
				continue
			}
			out[slot] = a
			got++
		case <-timer.C:
			for _, a := range out {
				if a.conn != nil {
					a.conn.Close()
				}
			}
			return nil, fmt.Errorf("dist: handshake: %d of %d workers authenticated within %v",
				got, n, timeout)
		}
	}
	return out, nil
}
