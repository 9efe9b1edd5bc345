package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"deepsea"
	"deepsea/internal/ingest"
	"deepsea/internal/sdss"
	"deepsea/internal/server"
	"deepsea/internal/shard"
	"deepsea/internal/workload"
)

// The ingest-mixed workload writes beside reads through a 2-shard
// coordinator. Each shard is a server.Server over its own System, with
// its own journal directory and result cache. One connection replays a
// fixed cycle, like an ETL job that waits for each acknowledgement: 10
// queries (Q1, Q7 or Q9 over SDSS ranges), then one 64-row store_sales
// append. Flush policy, the same on every run: the journal hands each
// record to the OS as it is written and fsyncs only on snapshot or close;
// no snapshot is taken during the timed phase.
const (
	ingestGB          = 100
	ingestShards      = 2
	ingestCacheBytes  = 64 << 20
	ingestCycleReads  = 10
	ingestBatchRows   = 64
	ingestAppendTable = "store_sales"
	// The cycles read a 1000-query SDSS trace over Q1, Q7 and Q9 in an
	// order the seed shuffles, wrapping around it; a run reads all of
	// it about twice.
	ingestQueryList = 1000
	ingestTraceSeed = 4
)

var ingestTemplates = []workload.Template{workload.Q1, workload.Q7, workload.Q9}

// ingestInputs generates the op sequence: op i is an append when
// (i+1) is a multiple of the cycle length, a query otherwise.
type ingestInputs struct {
	seed    int64
	data    *workload.Data
	queries []traceQuery
	sampler workload.Sampler
}

func newIngestInputs(seed int64) *ingestInputs {
	qs := sdssQueries(ingestQueryList, ingestTemplates, ingestTraceSeed)
	rng := rand.New(rand.NewSource(seed + 301))
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	return &ingestInputs{
		seed:    seed,
		data:    sdssData(ingestGB, seed),
		queries: qs,
		sampler: workload.Sampler(sdss.Sampler(40)),
	}
}

const ingestCycle = ingestCycleReads + 1

func isAppend(op int) bool { return (op+1)%ingestCycle == 0 }

func (in *ingestInputs) query(op int) traceQuery {
	return in.queries[(op-op/ingestCycle)%len(in.queries)]
}

func (in *ingestInputs) batch(op int) [][]any {
	return in.data.AppendRows(ingestAppendTable, ingestBatchRows, in.seed+1000+int64(op/ingestCycle), in.sampler)
}

// ingestCluster is one booted 2-shard stack.
type ingestCluster struct {
	systems []*deepsea.System
	stores  []deepsea.Datastore
	traced  []*tracedStore
	servers []*server.Server
	shardTS []*httptest.Server
	coord   *shard.Coordinator
	front   *httptest.Server
}

// clusterTrace links a traced cluster's spans across the hops no header
// crosses: the coordinator's open front span, and per shard the open
// subrequest and handler spans.
type clusterTrace struct {
	tr      *tracer
	front   current
	sub     []current
	handler []current
	shardOf map[string]int // shard index by host:port
}

func newIngestCluster(in *ingestInputs, dir string, ct *clusterTrace) (*ingestCluster, error) {
	cl := &ingestCluster{}
	var addrs []string
	for g := 0; g < ingestShards; g++ {
		store, err := deepsea.OpenJournal(filepath.Join(dir, fmt.Sprintf("shard%d", g)))
		if err != nil {
			cl.close()
			return nil, err
		}
		cl.stores = append(cl.stores, store)
		ds := store
		if ct != nil {
			ts := newTracedStore(store, ct.tr, &ct.handler[g])
			cl.traced = append(cl.traced, ts)
			ds = ts
		}
		sys := deepsea.New(deepsea.WithResultCache(ingestCacheBytes), deepsea.WithDatastore(ds))
		if err := workload.Load(sys, in.data); err != nil {
			cl.close()
			return nil, err
		}
		srv := server.New(sys, server.Config{MaxInFlight: 2, QueueTimeout: -1})
		var h http.Handler = srv.Handler()
		if ct != nil {
			h = ct.shardHandler(g, h)
		}
		ts := httptest.NewServer(h)
		cl.systems = append(cl.systems, sys)
		cl.servers = append(cl.servers, srv)
		cl.shardTS = append(cl.shardTS, ts)
		addrs = append(addrs, ts.URL)
		if ct != nil {
			ct.shardOf[ts.Listener.Addr().String()] = g
		}
	}
	cfg := shard.Config{
		Addrs:          addrs,
		DomainLo:       workload.ItemSkLo,
		DomainHi:       workload.ItemSkHi,
		RequestTimeout: 30 * time.Second,
		KeyIndex:       in.data.KeyIndexes(),
	}
	if ct != nil {
		cfg.Transport = &tracedTransport{ct: ct, inner: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	coord, err := shard.New(cfg)
	if err != nil {
		cl.close()
		return nil, err
	}
	cl.coord = coord
	if err := coord.Init(context.Background()); err != nil {
		cl.close()
		return nil, fmt.Errorf("coordinator init: %w", err)
	}
	var h http.Handler = coord.Handler()
	if ct != nil {
		h = tracedHandler(ct.tr, "shard.front", h, func(req uint64, id int) { ct.front.set(req, id) })
	}
	cl.front = httptest.NewServer(h)
	return cl, nil
}

func (cl *ingestCluster) close() {
	if cl.front != nil {
		cl.front.Close()
	}
	if cl.coord != nil {
		cl.coord.Close()
	}
	for i, srv := range cl.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_ = srv.Shutdown(ctx) // its final snapshot only shortens a recovery nobody runs
		cancel()
		cl.shardTS[i].Close()
	}
	for _, s := range cl.stores {
		s.Close()
	}
}

func (cl *ingestCluster) health() []deepsea.Health {
	out := make([]deepsea.Health, len(cl.systems))
	for i, s := range cl.systems {
		out[i] = s.Health()
	}
	return out
}

// shardHandler names a shard's spans by endpoint and parents them on the
// coordinator subrequest that caused them.
func (ct *clusterTrace) shardHandler(g int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "server.handler"
		if r.URL.Path == "/append" {
			name = "ingest.append_handler"
		}
		req, parent := ct.sub[g].get()
		id := ct.tr.open(name, parent, req)
		ct.handler[g].set(req, id)
		h.ServeHTTP(w, r)
		ct.tr.close(id)
		ct.handler[g].set(0, 0)
	})
}

// tracedTransport times each coordinator-to-shard request as a
// "shard.subrequest" span under the open front span.
type tracedTransport struct {
	ct    *clusterTrace
	inner http.RoundTripper
}

func (t *tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	req, parent := t.ct.front.get()
	id := t.ct.tr.open("shard.subrequest", parent, req)
	g, ok := t.ct.shardOf[r.URL.Host]
	if ok {
		t.ct.sub[g].set(req, id)
	}
	resp, err := t.inner.RoundTrip(r)
	if err == nil {
		// The body is read after RoundTrip returns; the span ends when
		// the coordinator has read it.
		resp.Body = &spanBody{ReadCloser: resp.Body, end: func() { t.ct.tr.close(id) }}
	} else {
		t.ct.tr.close(id)
	}
	return resp, err
}

// spanBody ends a subrequest span when the coordinator closes the
// response body, after it has read it.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	end  func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.end)
	return err
}

// ingestPhase is one timed phase of the single connection's cycle.
type ingestPhase struct {
	wall      time.Duration
	recs      []clientRecord
	rows      int
	userBytes int
	allocKB   float64
	liveMB    float64
	before    []deepsea.Health
	after     []deepsea.Health
	stores    []storeCounts
}

func (p *ingestPhase) counts() (queries, appends int) {
	for _, r := range p.recs {
		if r.append {
			appends++
		} else {
			queries++
		}
	}
	return queries, appends
}

func runIngestPhase(cl *ingestCluster, in *ingestInputs, budget time.Duration, tr *tracer) (*ingestPhase, error) {
	for _, ts := range cl.traced {
		ts.resetCounts()
	}
	tr.reset()
	p := &ingestPhase{before: cl.health()}
	client := newConnClient()
	defer client.CloseIdleConnections()
	runtime.GC()
	before := totalAlloc()
	start := time.Now()
	deadline := start.Add(budget)
	for op := 0; time.Now().Before(deadline); op++ {
		req := uint64(op + 1)
		r := clientRecord{req: req, key: op, append: isAppend(op)}
		root := tr.open("client", 0, req)
		if r.append {
			rows := in.batch(op)
			b, err := json.Marshal(rows)
			if err != nil {
				return nil, err
			}
			t := time.Now()
			var resp shard.AppendResponse
			r.err = postJSON(client, cl.front.URL+"/append", ingest.Spec{Table: ingestAppendTable, Rows: rows}, &resp, req, root)
			r.latency = time.Since(t)
			if r.err == nil {
				p.rows += len(rows)
				p.userBytes += len(b)
			}
		} else {
			t := time.Now()
			var resp shard.Response
			r.err = postJSON(client, cl.front.URL+"/query", specOf(in.query(op)), &resp, req, root)
			if r.err == nil {
				r.simS = resp.SimulatedSeconds
				r.digest, r.err = digest(resp.Columns, resp.Rows)
			}
			r.latency = time.Since(t)
		}
		tr.close(root)
		p.recs = append(p.recs, r)
	}
	p.wall = time.Since(start)
	tr.stop()
	p.allocKB = allocKBPerOp(before, len(p.recs))
	p.liveMB = liveHeapMB()
	p.after = cl.health()
	for _, ts := range cl.traced {
		p.stores = append(p.stores, ts.counts())
	}
	return p, nil
}

// checkIngestAnswers replays the phase's ops in order on a System that
// never materializes views: the same appends, and every query's answer
// compared with the one the cluster gave at the same point.
func checkIngestAnswers(in *ingestInputs, recs []clientRecord) (failed, wrong int, err error) {
	ref := deepsea.New(deepsea.WithoutMaterialization())
	if err := workload.Load(ref, in.data); err != nil {
		return 0, 0, err
	}
	for _, r := range recs {
		if r.append {
			if r.err != nil {
				// The batch may have landed on some shards; answers after
				// it cannot be checked against a reference that guesses.
				return failed + 1, wrong, fmt.Errorf("append op %d failed: %v", r.key, r.err)
			}
			if _, err := ref.Append(ingestAppendTable, in.batch(r.key)); err != nil {
				return 0, 0, fmt.Errorf("reference append op %d: %w", r.key, err)
			}
			continue
		}
		if r.err != nil {
			failed++
			continue
		}
		rep, err := ref.Run(in.query(r.key).build())
		if err != nil {
			return 0, 0, fmt.Errorf("reference query op %d: %w", r.key, err)
		}
		d, err := digest(rep.Columns(), rep.Rows())
		if err != nil {
			return 0, 0, err
		}
		if d != r.digest {
			failed++
			wrong++
		}
	}
	return failed, wrong, nil
}

func runIngestMixed(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	in := newIngestInputs(cfg.seed)

	var setupS []float64
	var cl *ingestCluster
	for i := 0; i < setupRepeats; i++ {
		if cl != nil {
			cl.close()
		}
		// Each set-up generates its inputs afresh, as a new process would.
		setup, err := timeSetup(func() error {
			in = newIngestInputs(cfg.seed)
			var err error
			cl, err = newIngestCluster(in, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i)), nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, setup)
	}
	phase, err := runIngestPhase(cl, in, cfg.seconds, nil)
	cl.close()
	if err != nil {
		return nil, err
	}
	failed, wrong, err := checkIngestAnswers(in, phase.recs)
	if err != nil {
		return nil, err
	}
	out.attempted, out.failed, out.wrong = len(phase.recs), failed, wrong

	var qlat, alat []float64
	var sim float64
	for _, r := range phase.recs {
		ms := float64(r.latency.Nanoseconds()) / 1e6
		if r.append {
			alat = append(alat, ms)
		} else {
			qlat = append(qlat, ms)
			sim += r.simS
		}
	}
	nq, na := phase.counts()
	var journal int64
	for i := range phase.after {
		journal += phase.after[i].JournalBytes - phase.before[i].JournalBytes
	}
	out.printf("%d queries and %d appends of %d rows over 1 connection, %d shards, %.0f GB modelled",
		nq, na, ingestBatchRows, ingestShards, float64(in.data.TotalBytes())/(1<<30))

	if !cfg.trace {
		p50, err := percentile(qlat, 50)
		if err != nil {
			return nil, err
		}
		p99, err := percentile(qlat, 99)
		if err != nil {
			return nil, err
		}
		appendP50, err := percentile(alat, 50)
		if err != nil {
			return nil, fmt.Errorf("append latency: %w", err)
		}
		appendP90, err := percentile(alat, 90)
		if err != nil {
			return nil, fmt.Errorf("append latency: %w", err)
		}
		out.printf("%-34s %14.6f ms", "append_p50_ms", appendP50)
		out.printf("%-34s %14.6f ms", "append_p90_ms", appendP90)
		out.printf("%-34s %14.6f 1/s", "ingest_rows_per_s", float64(phase.rows)/phase.wall.Seconds())
		out.printf("%-34s %14.6f ratio (%d journal bytes for %d bytes of appended rows as JSON)",
			"journal_bytes_per_user_byte", ratio(float64(journal), float64(phase.userBytes)), journal, phase.userBytes)
		out.metrics["setup_s"] = median(setupS)
		out.metrics["query_p50_ms"] = p50
		out.metrics["query_p99_ms"] = p99
		out.metrics["query_qps"] = float64(nq) / phase.wall.Seconds()
		out.metrics["sim_s_per_query"] = sim / float64(nq)
		out.metrics["alloc_kb_per_op"] = phase.allocKB
		out.metrics["live_heap_mb"] = phase.liveMB
		return out, nil
	}

	ct := &clusterTrace{
		tr:      newTracer(),
		sub:     make([]current, ingestShards),
		handler: make([]current, ingestShards),
		shardOf: make(map[string]int),
	}
	tcl, err := newIngestCluster(in, filepath.Join(cfg.dir, "traced"), ct)
	if err != nil {
		return nil, err
	}
	traced, err := runIngestPhase(tcl, in, cfg.seconds, ct.tr)
	tcl.close()
	if err != nil {
		return nil, err
	}
	tf, tw, err := checkIngestAnswers(in, traced.recs)
	if err != nil {
		return nil, err
	}
	out.attempted += len(traced.recs)
	out.failed += tf
	out.wrong += tw
	if err := ct.tr.write(cfg.spanPath); err != nil {
		return nil, err
	}
	out.printf("spans written to %s", cfg.spanPath)
	ingestLayerMetrics(zeroLayerMetrics(out), ct.tr, traced, &out.notes)
	m := out.metrics
	m["trace.overhead_ratio"] = (traced.wall.Seconds() / float64(len(traced.recs))) /
		(phase.wall.Seconds() / float64(len(phase.recs)))
	m["trace.self_sum_error"] = ct.tr.selfSumError(traced.wall, 1)
	out.printf("%d spans recorded", ct.tr.len())
	return out, checkSelfSum(m)
}

// ingestLayerMetrics derives the coordinator, shard server, cache,
// ingest and datastore figures of a traced ingest-mixed phase.
func ingestLayerMetrics(m map[string]float64, tr *tracer, p *ingestPhase, notes *[]string) {
	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	front := make(map[uint64]float64)
	slowestSub := make(map[uint64]float64)
	var fronts, subs, handlers, appendHandlers []float64
	for _, s := range spans {
		d := float64(s.End-s.Start) / 1e6
		switch s.Name {
		case "shard.front":
			front[s.Req] = d
			fronts = append(fronts, d)
		case "shard.subrequest":
			subs = append(subs, d)
			slowestSub[s.Req] = max(slowestSub[s.Req], d)
		case "server.handler":
			handlers = append(handlers, d)
		case "ingest.append_handler":
			appendHandlers = append(appendHandlers, d)
		}
	}
	var self []float64
	for req, f := range front {
		self = append(self, f-slowestSub[req])
	}
	ops := float64(len(p.recs))
	_, appends := p.counts()

	m["shard.front_ms_p50"] = layerPercentile("shard.front_ms_p50", fronts, 50, notes)
	m["shard.subrequest_ms_p50"] = layerPercentile("shard.subrequest_ms_p50", subs, 50, notes)
	m["shard.subrequests_per_op"] = float64(len(subs)) / ops
	m["shard.self_ms_p50"] = layerPercentile("shard.self_ms_p50", self, 50, notes)
	m["server.handler_ms_p50"] = layerPercentile("server.handler_ms_p50", handlers, 50, notes)
	m["server.handler_ms_total"] = sum(handlers)
	m["ingest.append_handler_ms_p50"] = layerPercentile("ingest.append_handler_ms_p50", appendHandlers, 50, notes)

	var before, after deepsea.Health
	for i := range p.after {
		addHealth(&before, p.before[i])
		addHealth(&after, p.after[i])
	}
	cacheLayerMetrics(m, before, after, len(p.recs))
	m["server.plan_batches_per_query"] = ratio(float64(after.PlanAcquisitions-before.PlanAcquisitions),
		float64(after.Queries-before.Queries))
	m["ingest.refreshes_per_append"] = ratio(float64(after.IngestRefreshes-before.IngestRefreshes), float64(appends))
	m["ingest.drops"] = float64(after.IngestDrops - before.IngestDrops)

	var alat []float64
	for _, r := range p.recs {
		if r.append {
			alat = append(alat, float64(r.latency.Nanoseconds())/1e6)
		}
	}
	m["ingest.append_p50_ms"] = layerPercentile("ingest.append_p50_ms", alat, 50, notes)
	m["ingest.append_p90_ms"] = layerPercentile("ingest.append_p90_ms", alat, 90, notes)
	m["ingest.rows_per_s"] = float64(p.rows) / p.wall.Seconds()

	var busy time.Duration
	var records uint64
	bytes := make(map[string]int64)
	var total int64
	for _, c := range p.stores {
		busy += c.busy
		records += c.records
		for op, b := range c.bytes {
			bytes[op] += b
			total += b
		}
	}
	m["datastore.busy_ms"] = float64(busy.Nanoseconds()) / 1e6
	m["datastore.records"] = float64(records)
	m["datastore.bytes"] = float64(total)
	for _, op := range []string{"put_file", "append_file", "append_rows", "hit"} {
		m["datastore.bytes."+op] = float64(bytes[op])
	}
	m["datastore.bytes_per_user_byte"] = ratio(float64(total), float64(p.userBytes))
}

// addHealth sums the counters the per-layer metrics read.
func addHealth(dst *deepsea.Health, h deepsea.Health) {
	dst.Queries += h.Queries
	dst.PlanAcquisitions += h.PlanAcquisitions
	dst.CacheHits += h.CacheHits
	dst.CacheMisses += h.CacheMisses
	dst.CacheInvalidations += h.CacheInvalidations
	dst.IngestRefreshes += h.IngestRefreshes
	dst.IngestDrops += h.IngestDrops
}
