package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http/httputil"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// request is one generated operation: a GET /lookup of ips[0], or a
// POST /batch of all of ips.
type request struct {
	batch bool
	ips   []string
	body  []byte // the /batch document
	wire  []byte // the whole HTTP/1.1 request
}

func lookupRequest(ip string) request {
	return request{ips: []string{ip}, wire: []byte("GET /lookup?ip=" + ip + " HTTP/1.1\r\nHost: geoserve\r\n\r\n")}
}

func batchRequest(ips []string) request {
	body, _ := json.Marshal(map[string][]string{"ips": ips})
	wire := fmt.Appendf(nil, "POST /batch HTTP/1.1\r\nHost: geoserve\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	return request{batch: true, ips: ips, body: body, wire: wire}
}

// result is what the generator observed for one request. Times are
// offsets from the start of the phase.
type result struct {
	due, sent, done time.Duration
	// late is how long after it could have gone out the request was
	// sent: after max(due, the moment a connection was free). It is the
	// generator's own timing error, not the system's queueing.
	late   time.Duration
	status int
	body   []byte
	err    error
}

// latency is the request's latency timed from when it was due, so a
// stall also charges the requests that were due while it lasted.
func (r *result) latency() time.Duration { return r.done - r.due }

// poissonSchedule returns n arrival offsets of a Poisson process of the
// given rate, drawn from rng.
func poissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = time.Duration(t * float64(time.Second))
	}
	return out
}

// sender issues one request over connection conn (0 <= conn < the
// generator's connection count) and returns the status and body.
type sender func(conn int, req *request) (int, []byte, error)

// httpConns sends requests over conns persistent HTTP/1.1 connections to
// addr, one per sending goroutine. It writes requests and parses
// responses itself: net/http's client hands every request between three
// goroutines, and on two busy cores those hand-offs, not the server,
// set the latency.
type httpConns struct {
	addr  string
	conns []*httpConn
}

type httpConn struct {
	c  net.Conn
	br *bufio.Reader
}

func newHTTPConns(addr string, n int) *httpConns {
	return &httpConns{addr: addr, conns: make([]*httpConn, n)}
}

// close closes every open connection.
func (h *httpConns) close() {
	for i, c := range h.conns {
		if c != nil {
			c.c.Close()
			h.conns[i] = nil
		}
	}
}

// send implements sender. A connection the server closed is reopened
// once; any other error is the request's failure.
func (h *httpConns) send(i int, req *request) (int, []byte, error) {
	for attempt := 0; ; attempt++ {
		if h.conns[i] == nil {
			c, err := net.DialTimeout("tcp", h.addr, 5*time.Second)
			if err != nil {
				return 0, nil, err
			}
			h.conns[i] = &httpConn{c: c, br: bufio.NewReader(c)}
		}
		c := h.conns[i]
		c.c.SetDeadline(time.Now().Add(10 * time.Second))
		status, body, keep, err := c.roundTrip(req.wire)
		if err == nil {
			if !keep {
				c.c.Close()
				h.conns[i] = nil
			}
			return status, body, nil
		}
		c.c.Close()
		h.conns[i] = nil
		if attempt > 0 || !(errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)) {
			return 0, nil, err
		}
	}
}

// roundTrip writes one request and reads its response: the status line,
// the headers, and a Content-Length or chunked body. keep is false when
// the server closes the connection after it.
func (c *httpConn) roundTrip(req []byte) (status int, body []byte, keep bool, err error) {
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, false, err
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, false, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil {
		return 0, nil, false, fmt.Errorf("bad status line %q", line)
	}
	length, chunked, keep := -1, false, true
	for {
		line, err := c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, false, err
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, _ := bytes.Cut(line, []byte(":"))
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, nil, false, fmt.Errorf("bad Content-Length %q", v)
			}
		case bytes.EqualFold(k, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(v, []byte("chunked"))
		case bytes.EqualFold(k, []byte("Connection")):
			keep = !bytes.EqualFold(v, []byte("close"))
		}
	}
	switch {
	case chunked:
		body, err = io.ReadAll(httputil.NewChunkedReader(c.br))
		if err == nil {
			_, err = c.br.ReadSlice('\n') // the empty trailer
		}
	case length >= 0:
		body = make([]byte, length)
		_, err = io.ReadFull(c.br, body)
	default:
		return 0, nil, false, errors.New("response without Content-Length")
	}
	if err != nil {
		return 0, nil, false, err
	}
	return status, body, keep, nil
}

// openLoop sends reqs[i] at sched[i] after the phase starts, over conns
// workers that each keep one request in flight. A worker that falls
// behind sends every overdue request back to back instead of sleeping,
// so a stall is charged to the requests due during it, and the schedule
// never slows down to match the system. A nil sched sends the requests
// closed-loop: each worker sends its next request as soon as the last
// one is answered.
//
// It returns the phase's start, which result times are offsets from.
func openLoop(send sender, reqs []request, sched []time.Duration, conns int) (time.Time, []result) {
	res := make([]result, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				free := time.Since(t0)
				r := &res[i]
				r.due = free
				if sched != nil {
					r.due = sched[i]
					sleepUntil(t0.Add(r.due))
				}
				r.sent = time.Since(t0)
				r.late = r.sent - max(r.due, free)
				r.status, r.body, r.err = send(w, &reqs[i])
				r.done = time.Since(t0)
			}
		}(w)
	}
	wg.Wait()
	return t0, res
}

// timerSlack is how early sleepUntil wakes from its kernel sleep; the
// last stretch is spent yielding, which keeps the wake-up error in
// microseconds where time.Sleep on Linux rounds to about a millisecond.
const timerSlack = 80 * time.Microsecond

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - timerSlack; d > 0 {
		ts := syscall.NsecToTimespec(int64(d))
		for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
