package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// maxConns is the client's connection bound: the container's CPU count,
// so the client never holds more sockets than the daemons have cores.
const maxConns = 2

// client is the benchmark's single HTTP client: one request in flight
// (its callers are sequential), keep-alive connections, at most maxConns
// of them idle.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        maxConns,
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is a fully read reply.
type response struct {
	status int
	header http.Header
	body   []byte
}

// do sends one request and reads the whole reply, so the connection
// returns to the keep-alive pool. A nil body sends none; a streamed
// body goes out with chunked transfer encoding.
func (c *client) do(method, url, ctype string, body io.Reader) (response, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return response{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return response{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return response{}, fmt.Errorf("%s %s: reading reply: %w", method, url, err)
	}
	return response{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

// streamBody hides the reader's length from net/http, so the request
// goes out chunked like a capture streamed off a collection host.
type streamBody struct{ r io.Reader }

func (s streamBody) Read(p []byte) (int, error) { return s.r.Read(p) }

func streamed(b []byte) io.Reader { return streamBody{bytes.NewReader(b)} }

// cacheCounters sums the daemons' result-cache hit and miss counters
// from their /metrics.
func (c *client) cacheCounters(f fleet) (hits, misses float64, err error) {
	for _, d := range f {
		h, m, err := c.cacheCountersOf(d.url())
		if err != nil {
			return 0, 0, err
		}
		hits, misses = hits+h, misses+m
	}
	return hits, misses, nil
}

func (c *client) cacheCountersOf(base string) (hits, misses float64, err error) {
	r, err := c.do(http.MethodGet, base+"/metrics", "", nil)
	if err != nil {
		return 0, 0, err
	}
	if r.status != http.StatusOK {
		return 0, 0, fmt.Errorf("GET /metrics: status %d", r.status)
	}
	sc := bufio.NewScanner(bytes.NewReader(r.body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "memgazed_result_cache_hits_total":
			hits, err = strconv.ParseFloat(val, 64)
		case "memgazed_result_cache_misses_total":
			misses, err = strconv.ParseFloat(val, 64)
		}
		if err != nil {
			return 0, 0, fmt.Errorf("parsing %s: %w", name, err)
		}
	}
	return hits, misses, sc.Err()
}
