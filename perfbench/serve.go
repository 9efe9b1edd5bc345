package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"deepsea"
	"deepsea/internal/server"
	"deepsea/internal/workload"
)

// The serve-hot workload is dashboard traffic against one in-process
// server.Server on loopback: two closed-loop connections draw
// Zipf-skewed requests from a hot set of 64 (template, SDSS range) pairs
// whose results fit far inside the 256 MB result cache, and every 25th
// request of a connection is a cold query from the SDSS trace, so about
// 96% of requests can be hits. The pool is unbounded. Setup warms the
// hot set. The instance is a fifth of sdss-replay's, so misses
// stay cheap and serving, not planning, sets the pace.
const (
	serveGB         = 20
	serveHotSet     = 64
	serveCacheBytes = 256 << 20
	serveConns      = 2
	serveColdEvery  = 25
	serveZipfS      = 1.2
	serveHotTrace   = 2
	serveColdTrace  = 3
	// serveColdPerSecond sizes the cold query list: more cold queries
	// per second than any run issues, so the list does not wrap.
	serveColdPerSecond = 400
)

// serveInputs are the hot set and the cold tail; a request's key is its
// hot index, or serveHotSet plus its cold index.
type serveInputs struct {
	hot, cold []traceQuery
}

func newServeInputs(seconds time.Duration) serveInputs {
	return serveInputs{
		hot:  sdssQueries(serveHotSet, workload.AllTemplates, serveHotTrace),
		cold: sdssQueries(int(seconds.Seconds()+1)*serveColdPerSecond, workload.AllTemplates, serveColdTrace),
	}
}

func (in serveInputs) query(key int) traceQuery {
	if key < len(in.hot) {
		return in.hot[key]
	}
	return in.cold[key-len(in.hot)]
}

// connKeys yields one connection's request keys: Zipf over the hot set,
// with every serveColdEvery-th request taken from the connection's own
// stride of the cold list.
func (in serveInputs) connKeys(seed int64, conn int) func() int {
	rng := rand.New(rand.NewSource(seed*31 + int64(conn)))
	zipf := rand.NewZipf(rng, serveZipfS, 1, uint64(len(in.hot)-1))
	perm := rng.Perm(len(in.hot)) // which hot pair is hottest
	n := 0
	return func() int {
		n++
		if n%serveColdEvery == 0 {
			i := (conn + serveConns*(n/serveColdEvery-1)) % len(in.cold)
			return len(in.hot) + i
		}
		return perm[zipf.Uint64()]
	}
}

func specOf(q traceQuery) server.QuerySpec {
	return server.QuerySpec{Template: q.Template.String(), Lo: q.Lo, Hi: q.Hi}
}

// serveSetup is one booted, warmed serving stack.
type serveSetup struct {
	sys *deepsea.System
	srv *server.Server
	ts  *httptest.Server
}

func newServeSetup(seed int64, in serveInputs, tr *tracer) (*serveSetup, error) {
	data := sdssData(serveGB, seed)
	sys := deepsea.New(deepsea.WithResultCache(serveCacheBytes))
	if err := workload.Load(sys, data); err != nil {
		return nil, err
	}
	srv := server.New(sys, server.Config{MaxInFlight: serveConns, QueueTimeout: -1})
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = tracedHandler(tr, "server.handler", h, nil)
	}
	st := &serveSetup{sys: sys, srv: srv, ts: httptest.NewServer(h)}
	client := newConnClient()
	defer client.CloseIdleConnections()
	for round := 0; round < 2; round++ {
		for i, q := range in.hot {
			var resp server.QueryResponse
			if err := postJSON(client, st.ts.URL+"/query", specOf(q), &resp, 0, 0); err != nil {
				st.close()
				return nil, fmt.Errorf("warm hot query %d: %w", i, err)
			}
		}
	}
	return st, nil
}

func (st *serveSetup) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = st.srv.Shutdown(ctx) // drains in-flight requests; nothing is journaled
	st.ts.Close()
}

// servePhase is one timed phase of closed-loop traffic.
type servePhase struct {
	wall    time.Duration
	recs    []clientRecord
	allocKB float64
	liveMB  float64
	before  deepsea.Health
	after   deepsea.Health
}

func (p *servePhase) queries() int { return len(p.recs) }

func runServePhase(st *serveSetup, in serveInputs, seed int64, budget time.Duration, tr *tracer) *servePhase {
	runtime.GC()
	p := &servePhase{before: st.sys.Health()}
	var rec recorder
	var reqSeq atomic.Uint64
	before := totalAlloc()
	start := time.Now()
	deadline := start.Add(budget)
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newConnClient()
			defer client.CloseIdleConnections()
			next := in.connKeys(seed, c)
			for time.Now().Before(deadline) {
				key := next()
				req := reqSeq.Add(1)
				root := tr.open("client", 0, req)
				t := time.Now()
				var resp server.QueryResponse
				err := postJSON(client, st.ts.URL+"/query", specOf(in.query(key)), &resp, req, root)
				r := clientRecord{req: req, key: key, roundTrp: time.Since(t), err: err,
					cacheHit: resp.CacheHit, simS: resp.SimulatedSeconds}
				if err == nil {
					r.digest, r.err = digest(resp.Columns, resp.Rows)
				}
				r.latency = time.Since(t)
				tr.close(root)
				rec.add(r)
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	tr.stop()
	p.recs = rec.recs
	p.allocKB = allocKBPerOp(before, len(p.recs))
	p.liveMB = liveHeapMB()
	p.after = st.sys.Health()
	return p
}

// checkAnswers compares every answer with the reference system's answer
// to the same query and returns the failed and wrong counts.
func checkAnswers(recs []clientRecord, answer func(key int) (string, error)) (failed, wrong int, err error) {
	want := make(map[int]string)
	for _, r := range recs {
		if r.err != nil {
			failed++
			continue
		}
		d, ok := want[r.key]
		if !ok {
			if d, err = answer(r.key); err != nil {
				return 0, 0, err
			}
			want[r.key] = d
		}
		if d != r.digest {
			failed++
			wrong++
		}
	}
	return failed, wrong, nil
}

func runServeHot(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	in := newServeInputs(cfg.seconds)

	var setupS []float64
	var st *serveSetup
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		setup, err := timeSetup(func() error {
			var err error
			st, err = newServeSetup(cfg.seed, in, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, setup)
	}
	phase := runServePhase(st, in, cfg.seed, cfg.seconds, nil)
	st.close()

	ref := deepsea.New(deepsea.WithoutMaterialization())
	if err := workload.Load(ref, sdssData(serveGB, cfg.seed)); err != nil {
		return nil, err
	}
	answer := func(key int) (string, error) {
		rep, err := ref.Run(in.query(key).build())
		if err != nil {
			return "", fmt.Errorf("reference query %d: %w", key, err)
		}
		return digest(rep.Columns(), rep.Rows())
	}
	failed, wrong, err := checkAnswers(phase.recs, answer)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed, out.wrong = phase.queries(), failed, wrong

	var lat []float64
	var sim float64
	hits, cold := 0, 0
	for _, r := range phase.recs {
		lat = append(lat, float64(r.latency.Nanoseconds())/1e6)
		sim += r.simS
		if r.cacheHit {
			hits++
		}
		if r.key >= serveHotSet {
			cold++
		}
	}
	nq := float64(phase.queries())
	out.printf("%d queries over %d connections: %.1f%% cache hits, %.1f%% cold-tail requests, hot set %d pairs, cache %d MiB",
		phase.queries(), serveConns, 100*float64(hits)/nq, 100*float64(cold)/nq, serveHotSet, serveCacheBytes>>20)

	if !cfg.trace {
		p50, err := percentile(lat, 50)
		if err != nil {
			return nil, err
		}
		p99, err := percentile(lat, 99)
		if err != nil {
			return nil, err
		}
		out.metrics["setup_s"] = median(setupS)
		out.metrics["query_p50_ms"] = p50
		out.metrics["query_p99_ms"] = p99
		out.metrics["query_qps"] = nq / phase.wall.Seconds()
		out.metrics["sim_s_per_query"] = sim / nq
		out.metrics["alloc_kb_per_op"] = phase.allocKB
		out.metrics["live_heap_mb"] = phase.liveMB
		return out, nil
	}

	tr := newTracer()
	tst, err := newServeSetup(cfg.seed, in, tr)
	if err != nil {
		return nil, err
	}
	tr = tr.reset()
	traced := runServePhase(tst, in, cfg.seed, cfg.seconds, tr)
	tst.close()
	tf, tw, err := checkAnswers(traced.recs, answer)
	if err != nil {
		return nil, err
	}
	out.attempted += traced.queries()
	out.failed += tf
	out.wrong += tw
	if err := tr.write(cfg.spanPath); err != nil {
		return nil, err
	}
	out.printf("spans written to %s", cfg.spanPath)

	m := zeroLayerMetrics(out)
	serverLayerMetrics(m, tr, traced.recs, &out.notes)
	cacheLayerMetrics(m, traced.before, traced.after, traced.queries())
	m["server.plan_batches_per_query"] = ratio(
		float64(traced.after.PlanAcquisitions-traced.before.PlanAcquisitions),
		float64(traced.after.Queries-traced.before.Queries))
	m["trace.overhead_ratio"] = (traced.wall.Seconds() / float64(traced.queries())) /
		(phase.wall.Seconds() / nq)
	m["trace.self_sum_error"] = tr.selfSumError(traced.wall, serveConns)
	out.printf("%d spans recorded", tr.len())
	return out, checkSelfSum(m)
}

// serverLayerMetrics derives the serving layer's figures from the
// "server.handler" spans: handler time, the client's round trip minus
// it (HTTP transport and encoding), and handler time split by whether
// the response came from the result cache.
func serverLayerMetrics(m map[string]float64, tr *tracer, recs []clientRecord, notes *[]string) {
	handler := tr.durByReq("server.handler")
	var all, transport, hit, miss []float64
	for _, r := range recs {
		h, ok := handler[r.req]
		if !ok {
			continue
		}
		all = append(all, h)
		transport = append(transport, float64(r.roundTrp.Nanoseconds())/1e6-h)
		if r.cacheHit {
			hit = append(hit, h)
		} else {
			miss = append(miss, h)
		}
	}
	m["server.handler_ms_p50"] = layerPercentile("server.handler_ms_p50", all, 50, notes)
	m["server.handler_ms_total"] = sum(all)
	m["server.transport_ms_p50"] = layerPercentile("server.transport_ms_p50", transport, 50, notes)
	m["cache.hit_ms_p50"] = layerPercentile("cache.hit_ms_p50", hit, 50, notes)
	m["cache.miss_ms_p50"] = layerPercentile("cache.miss_ms_p50", miss, 50, notes)
}

// cacheLayerMetrics reads the result cache's counters over a phase.
func cacheLayerMetrics(m map[string]float64, before, after deepsea.Health, ops int) {
	hits := float64(after.CacheHits - before.CacheHits)
	misses := float64(after.CacheMisses - before.CacheMisses)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.invalidations_per_op"] = ratio(float64(after.CacheInvalidations-before.CacheInvalidations), float64(ops))
}
