package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Headers carrying the client operation's request id and span id to the
// wrapped handlers of a traced run.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// newConnClient is an HTTP client that keeps exactly one connection, so
// a load generator goroutine is one closed-loop connection.
func newConnClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}
}

// postJSON posts body to url and decodes a 200 response into out. Any
// other status is an error carrying the start of the response body.
func postJSON(client *http.Client, url string, body, out any, req uint64, parent int) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	if parent != 0 {
		hr.Header.Set(hdrReq, strconv.FormatUint(req, 10))
		hr.Header.Set(hdrSpan, strconv.Itoa(parent))
	}
	resp, err := client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// spanParent reads the caller's request and span ids from a traced
// request; both are 0 on an untraced one.
func spanParent(r *http.Request) (uint64, int) {
	req, _ := strconv.ParseUint(r.Header.Get(hdrReq), 10, 64)
	parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
	return req, parent
}

// tracedHandler wraps h in a span named name whose parent comes from the
// request headers. onSpan, when set, learns the open span's id (the
// parent for spans the handler causes further down) and is called with
// 0 when the span closes.
func tracedHandler(tr *tracer, name string, h http.Handler, onSpan func(req uint64, id int)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent := spanParent(r)
		id := tr.open(name, parent, req)
		if onSpan != nil {
			onSpan(req, id)
		}
		h.ServeHTTP(w, r)
		tr.close(id)
		if onSpan != nil {
			onSpan(req, 0)
		}
	})
}

// current is the open span of one layer instance, for spans the layer
// causes without a request header to carry the link (journal writes,
// coordinator subrequests). The traced workloads that use it have one
// client connection, so at most one span per instance is open at a time.
type current struct {
	req atomic.Uint64
	id  atomic.Int64
}

func (c *current) set(req uint64, id int) {
	c.req.Store(req)
	c.id.Store(int64(id))
}

func (c *current) get() (uint64, int) { return c.req.Load(), int(c.id.Load()) }

// clientRecord is one client operation as the load generator saw it.
type clientRecord struct {
	req      uint64
	key      int // index of the operation's input
	append   bool
	latency  time.Duration
	roundTrp time.Duration
	cacheHit bool
	simS     float64
	digest   string
	err      error
}

// recorder collects client records from concurrent connections.
type recorder struct {
	mu   sync.Mutex
	recs []clientRecord
}

func (r *recorder) add(rec clientRecord) {
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
}
