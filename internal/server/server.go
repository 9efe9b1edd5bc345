// Package server is DeepSea's query-serving frontend: an HTTP/JSON API
// over the public deepsea.System with admission control (a bounded
// in-flight limit, a FIFO wait queue, and load shedding), template-
// batched planning (concurrent same-template requests coalesce into one
// planning-lock acquisition), an operational health surface, and a
// graceful drain-on-shutdown lifecycle.
//
// Endpoints:
//
//	POST /query   — run one query (body: QuerySpec JSON)
//	POST /append  — ingest a batch of base-table rows (body: ingest.Spec JSON)
//	GET  /healthz — liveness + degradation summary
//	GET  /statz   — full operational snapshot (health, admission, serving)
//	GET  /poolz   — materialized-pool contents
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"deepsea"
	"deepsea/internal/ingest"
)

// Config tunes the serving layer. The zero value is usable: defaults
// are filled in by New.
type Config struct {
	// MaxInFlight bounds concurrently executing queries (default
	// GOMAXPROCS).
	MaxInFlight int
	// MaxQueue bounds the admission wait queue; a request arriving with
	// the queue full is shed immediately (default 4 × MaxInFlight).
	MaxQueue int
	// QueueTimeout sheds a request that has waited this long for a slot
	// (default 1s; negative disables the timeout).
	QueueTimeout time.Duration
	// DefaultTimeout bounds a request's total processing when its spec
	// sets no timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// BatchMax caps how many requests one planning batch may coalesce
	// (default 0 = unbounded).
	BatchMax int
	// BatchLinger, when positive, is how long a template group's runner
	// waits before sealing a planning batch, so near-simultaneous
	// requests coalesce even when the scheduler would otherwise run them
	// back to back. Costs up to BatchLinger of latency per batch
	// (default 0 = batch only what accumulates during the prior batch).
	BatchLinger time.Duration
	// RetryAfter is the floor of the Retry-After hint on shed responses
	// in seconds (default 1). The actual hint is derived per response
	// from the admission queue's depth and the recent completion rate —
	// roughly how long until a new arrival would reach the front — and
	// clamped to [RetryAfter, 60]; when the rate is unknown (no recent
	// completions) the floor is used as-is.
	RetryAfter int
	// SnapshotEvery, when positive, checkpoints the system to its
	// mounted datastore on this period (and once more on drain), keeping
	// the journal tail — and therefore recovery time — short. Pointless
	// without deepsea.WithDatastore (default 0 = off).
	SnapshotEvery time.Duration
	// AppendMaxRows seals an append group-commit batch at this many rows
	// (default 4096); AppendLinger is how long the first contributor of a
	// batch waits for stragglers before the batch lands (default 2ms).
	// Concurrent POST /append calls for the same table coalesce into one
	// journal write and one view-refresh round.
	AppendMaxRows int
	AppendLinger  time.Duration
	// AppendDedupWindow is how many recently applied append tokens the
	// server remembers for idempotent retries (ingest.Spec.Token); a
	// repeated token within the window returns the original result
	// instead of appending the rows again. Default 4096; negative
	// disables dedup.
	AppendDedupWindow int
}

func (c *Config) fill() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInFlight
	}
	if c.QueueTimeout == 0 {
		c.QueueTimeout = time.Second
	} else if c.QueueTimeout < 0 {
		c.QueueTimeout = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 1
	}
	if c.AppendDedupWindow == 0 {
		c.AppendDedupWindow = 4096
	}
}

// ServingStats counts frontend traffic (admission counters live in
// AdmissionStats).
type ServingStats struct {
	Served     uint64 `json:"served"`
	Failed     uint64 `json:"failed"`
	Shed       uint64 `json:"shed"`
	TimedOut   uint64 `json:"timed_out"`
	BadRequest uint64 `json:"bad_request"`
	// Appends counts successful POST /append requests; AppendBatches the
	// coalesced group commits that landed them (Appends/AppendBatches is
	// the group-commit amortization under concurrent ingest).
	Appends       uint64 `json:"appends"`
	AppendBatches uint64 `json:"append_batches"`
	// AppendDedups counts append requests answered from the idempotency
	// window (a repeated token: the rows were already applied by an
	// earlier request, so nothing landed twice).
	AppendDedups uint64 `json:"append_dedups"`
}

// Server serves queries over one deepsea.System. Create with New,
// expose Handler over any http.Server, stop with Shutdown.
type Server struct {
	cfg   Config
	sys   *deepsea.System
	lim   *limiter
	bat   *batcher
	coal  *ingest.Coalescer[deepsea.AppendReport]
	dedup *appendDedup // nil when AppendDedupWindow < 0
	mux   *http.ServeMux

	// baseCtx parents every request's query context; cancel kills
	// stragglers when a drain deadline passes.
	baseCtx context.Context
	cancel  context.CancelFunc

	draining atomic.Bool
	reqWG    sync.WaitGroup

	// fencing marks a range handoff in progress: new queries are refused
	// with 503 until the new ownership is applied. activeQueries counts
	// requests past the fence check, so the handoff can drain them;
	// handoffMu serializes /admin/range calls.
	fencing       atomic.Bool
	activeQueries atomic.Int64
	handoffMu     sync.Mutex

	// role is the replica role the last range handoff assigned
	// ("primary" or "follower"; empty when standalone). Informational:
	// any replica answers queries for its range — the role only tells
	// operators which replica the coordinator prefers.
	role atomic.Value // string

	// snapStop/snapDone bound the periodic-snapshot goroutine (nil
	// without SnapshotEvery).
	snapStop chan struct{}
	snapDone chan struct{}
	snapErrs atomic.Uint64

	served       atomic.Uint64
	failed       atomic.Uint64
	shed         atomic.Uint64
	timedOut     atomic.Uint64
	badRequest   atomic.Uint64
	appends      atomic.Uint64
	appendDedups atomic.Uint64

	// completions feeds the drain-rate estimate behind Retry-After.
	completions completionRing

	// testExecGate, when set (tests only, before serving), runs after
	// admission and before execution — it lets tests hold all slots busy
	// deterministically.
	testExecGate func(ctx context.Context)
}

// New builds a Server over sys.
func New(sys *deepsea.System, cfg Config) *Server {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		sys:     sys,
		lim:     newLimiter(cfg.MaxInFlight, cfg.MaxQueue, cfg.QueueTimeout),
		bat:     newBatcher(sys, cfg.BatchMax, cfg.BatchLinger),
		baseCtx: ctx,
		cancel:  cancel,
	}
	s.coal = ingest.NewCoalescer(cfg.AppendMaxRows, cfg.AppendLinger,
		func(table string, rows [][]any) (deepsea.AppendReport, error) {
			return sys.Append(table, rows)
		})
	if cfg.AppendDedupWindow > 0 {
		s.dedup = newAppendDedup(cfg.AppendDedupWindow)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/append", s.handleAppend)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statz", s.handleStatz)
	mux.HandleFunc("/poolz", s.handlePoolz)
	mux.HandleFunc("/admin/range", s.handleAdminRange)
	s.mux = mux
	if cfg.SnapshotEvery > 0 {
		s.snapStop = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(cfg.SnapshotEvery)
	}
	return s
}

// snapshotLoop checkpoints the system on a timer until Shutdown. A
// failed snapshot is counted and retried next tick — the journal keeps
// the durability floor in the meantime.
func (s *Server) snapshotLoop(every time.Duration) {
	defer close(s.snapDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.sys.Snapshot(); err != nil {
				s.snapErrs.Add(1)
			}
		case <-s.snapStop:
			return
		}
	}
}

// Handler returns the HTTP handler (mount it on any http.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// SetExecGate installs a hook that runs after admission and before
// execution. Tests and benches use it to hold admission slots busy
// deterministically. Must be set before the server starts serving.
func (s *Server) SetExecGate(f func(ctx context.Context)) { s.testExecGate = f }

// Shutdown drains the server: new queries are refused with 503,
// in-flight ones finish, then the batcher's group runners exit. If ctx
// expires first, straggling queries are cancelled (they unwind promptly
// through RunContext) and the drain still completes before Shutdown
// returns ctx.Err() — either way no goroutine is left behind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		s.bat.close()
		s.coal.Close()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.cancel()
		<-done
		err = ctx.Err()
	}
	// The system is quiet now: stop the snapshot ticker, drain the
	// background maintenance queue (so enqueued materializations and
	// merges commit and get journaled), then take one final checkpoint
	// so a restart replays no journal tail at all.
	if s.snapStop != nil {
		close(s.snapStop)
		<-s.snapDone
	}
	if derr := s.sys.DrainMaintenance(ctx); derr != nil && err == nil {
		err = derr
	}
	s.sys.CloseMaintenance()
	if serr := s.sys.Snapshot(); serr != nil && err == nil {
		err = serr
	}
	return err
}

// QueryResponse is the JSON body of a successful POST /query.
type QueryResponse struct {
	Columns          []string `json:"columns,omitempty"`
	Rows             [][]any  `json:"rows,omitempty"`
	CacheHit         bool     `json:"cache_hit,omitempty"`
	Rewritten        bool     `json:"rewritten,omitempty"`
	UsedView         string   `json:"used_view,omitempty"`
	FragmentsRead    int      `json:"fragments_read,omitempty"`
	Retries          int      `json:"retries,omitempty"`
	SimulatedSeconds float64  `json:"simulated_seconds"`
}

type errResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// completionRing tracks request completions in one-second buckets so
// shed responses can estimate the server's drain rate without keeping
// per-request timestamps. The window is len(buckets) seconds; buckets
// older than the window are lazily zeroed as the clock wraps onto them.
type completionRing struct {
	mu      sync.Mutex
	buckets [8]uint64
	stamps  [8]int64 // unix second each bucket currently counts for
}

func (r *completionRing) note(now time.Time) {
	sec := now.Unix()
	i := int(sec % int64(len(r.buckets)))
	r.mu.Lock()
	if r.stamps[i] != sec {
		r.stamps[i] = sec
		r.buckets[i] = 0
	}
	r.buckets[i]++
	r.mu.Unlock()
}

// rate returns completions per second averaged over the full window.
// Idle seconds count as zeros (silence is signal); 0 means no
// completion landed inside the window at all.
func (r *completionRing) rate(now time.Time) float64 {
	sec := now.Unix()
	r.mu.Lock()
	defer r.mu.Unlock()
	var n uint64
	for i := range r.buckets {
		if age := sec - r.stamps[i]; age >= 0 && age < int64(len(r.buckets)) {
			n += r.buckets[i]
		}
	}
	return float64(n) / float64(len(r.buckets))
}

// retryAfter derives the Retry-After hint for a shed response: with
// depth requests already queued and the recent drain rate, a new
// arrival reaches the front in about (depth+1)/rate seconds. Clamped
// to [cfg.RetryAfter, 60]; an unknown rate falls back to the floor.
func (s *Server) retryAfter() int {
	_, _, depth := s.lim.snapshot()
	rate := s.completions.rate(time.Now())
	if rate <= 0 {
		return s.cfg.RetryAfter
	}
	secs := int(math.Ceil(float64(depth+1) / rate))
	if secs < s.cfg.RetryAfter {
		secs = s.cfg.RetryAfter
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

func (s *Server) writeShed(w http.ResponseWriter) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	writeJSON(w, http.StatusTooManyRequests, errResponse{Error: ErrShed.Error()})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "POST only"})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: ErrDraining.Error()})
		return
	}
	s.reqWG.Add(1)
	defer s.reqWG.Done()
	// Re-check under the WaitGroup: a drain that started before the Add
	// observes either the flag refusing us or the Add it must wait for.
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: ErrDraining.Error()})
		return
	}

	// Count the request before checking the fence (mirroring the drain
	// handshake above): a handoff that set the fence flag either refuses
	// us here or sees our count and waits for it.
	s.activeQueries.Add(1)
	defer s.activeQueries.Add(-1)
	if s.fencing.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: "range handoff in progress"})
		return
	}

	var spec QuerySpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	if resp, ok := s.checkOwnership(&spec); !ok {
		writeJSON(w, http.StatusConflict, resp)
		return
	}
	q, err := spec.build()
	if err != nil {
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
		return
	}
	key, err := s.sys.TemplateKey(q)
	if err != nil {
		// The query names an unknown table or column: a client error.
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
		return
	}

	// The request's deadline covers everything from here on — the
	// admission wait included, so a queued request whose budget is gone
	// sheds instead of executing. The server's base context parents it:
	// a drain past its deadline cancels stragglers centrally.
	timeout := s.cfg.DefaultTimeout
	if spec.TimeoutMS > 0 {
		timeout = time.Duration(spec.TimeoutMS) * time.Millisecond
	}
	ctx, cancelReq := context.WithTimeout(r.Context(), timeout)
	defer cancelReq()
	stop := context.AfterFunc(s.baseCtx, cancelReq)
	defer stop()

	if err := s.lim.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, ErrShed):
			s.writeShed(w)
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errResponse{Error: "deadline exceeded in queue"})
		default: // client went away
			s.failed.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error()})
		}
		return
	}
	// Every slot hand-back counts toward the drain rate, success or not:
	// Retry-After estimates slot turnover, not success throughput.
	defer func() {
		s.lim.release()
		s.completions.note(time.Now())
	}()

	if s.testExecGate != nil {
		s.testExecGate(ctx)
	}

	rep, err := s.bat.run(ctx, key, q)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errResponse{Error: "deadline exceeded"})
		case errors.Is(err, context.Canceled):
			s.failed.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error()})
		default:
			s.failed.Add(1)
			writeJSON(w, http.StatusInternalServerError, errResponse{Error: err.Error()})
		}
		return
	}
	s.served.Add(1)
	writeJSON(w, http.StatusOK, QueryResponse{
		Columns:          rep.Columns(),
		Rows:             rep.Rows(),
		CacheHit:         rep.CacheHit,
		Rewritten:        rep.Rewritten,
		UsedView:         rep.UsedView,
		FragmentsRead:    rep.FragmentsRead,
		Retries:          rep.Retries,
		SimulatedSeconds: rep.SimulatedSeconds(),
	})
}

// AppendResponse is the JSON body of a successful POST /append: the
// shared report of the group-commit batch the request's rows landed in.
type AppendResponse struct {
	Table      string   `json:"table"`
	NewCount   int64    `json:"new_count"`
	StaleViews []string `json:"stale_views,omitempty"`
	Refreshed  []string `json:"refreshed,omitempty"`
	Dropped    []string `json:"dropped,omitempty"`
	// Deferred marks refresh work handed to the background maintenance
	// pool (views may be briefly stale but are never served stale).
	Deferred bool `json:"deferred,omitempty"`
	// Deduped marks a repeated idempotency token: the batch was already
	// applied by an earlier request and the response replays that
	// request's result — no rows landed twice.
	Deduped bool `json:"deduped,omitempty"`
}

// checkAppendOwnership is checkOwnership for the ingest path: a sharded
// server rejects stale-epoch appends and batches whose routing keys fall
// outside the owned range, both as 409s carrying the true ownership.
// Tables without a routing key (replicated dimensions) pass the range
// check on any shard.
func (s *Server) checkAppendOwnership(sp *ingest.Spec) (rangeErrResponse, bool) {
	or, owned := s.sys.OwnedRange()
	if !owned {
		return rangeErrResponse{}, true
	}
	mk := func(format string, args ...any) rangeErrResponse {
		return rangeErrResponse{
			Error:      fmt.Sprintf(format, args...),
			OwnedLo:    or.Lo,
			OwnedHi:    or.Hi,
			RangeEpoch: or.Epoch,
		}
	}
	if sp.Epoch != 0 && sp.Epoch != or.Epoch {
		return mk("stale routing epoch %d: shard owns [%d,%d] at epoch %d",
			sp.Epoch, or.Lo, or.Hi, or.Epoch), false
	}
	if ki := s.sys.RoutingKeyIndex(sp.Table); ki >= 0 {
		if lo, hi, ok := sp.ItemRange(ki); ok && (lo < or.Lo || hi > or.Hi) {
			return mk("append keys [%d,%d] not owned: shard owns [%d,%d] at epoch %d",
				lo, hi, or.Lo, or.Hi, or.Epoch), false
		}
	}
	return rangeErrResponse{}, true
}

// handleAppend is POST /append: the online ingest path. It runs behind
// the same drain/fence/admission protections as /query, pre-validates
// the batch against the table schema (so one caller's bad rows 400
// instead of failing a shared group commit), and lands the rows through
// the coalescer — journaled, dependent views refreshed incrementally.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "POST only"})
		return
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: ErrDraining.Error()})
		return
	}
	s.reqWG.Add(1)
	defer s.reqWG.Done()
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: ErrDraining.Error()})
		return
	}

	// Appends count toward the handoff fence like queries: a range
	// handoff drains in-flight ingest before the epoch advances.
	s.activeQueries.Add(1)
	defer s.activeQueries.Add(-1)
	if s.fencing.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: "range handoff in progress"})
		return
	}

	sp, err := ingest.DecodeSpec(r.Body)
	if err != nil {
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
		return
	}
	if resp, ok := s.checkAppendOwnership(sp); !ok {
		writeJSON(w, http.StatusConflict, resp)
		return
	}
	if err := s.sys.ValidateRows(sp.Table, sp.Rows); err != nil {
		s.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, errResponse{Error: err.Error()})
		return
	}

	ctx, cancelReq := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancelReq()
	stop := context.AfterFunc(s.baseCtx, cancelReq)
	defer stop()

	// Ingest shares the admission limiter with queries: under overload
	// both shed, so an append burst cannot starve reads of slots (nor
	// the reverse).
	if err := s.lim.acquire(ctx); err != nil {
		switch {
		case errors.Is(err, ErrShed):
			s.writeShed(w)
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, errResponse{Error: "deadline exceeded in queue"})
		default:
			s.failed.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errResponse{Error: err.Error()})
		}
		return
	}
	defer func() {
		s.lim.release()
		s.completions.note(time.Now())
	}()

	rep, deduped, err := s.landAppend(sp)
	if err != nil {
		// Rows were pre-validated, so a flush failure is a server-side
		// journal or refresh error, not this request's fault.
		s.failed.Add(1)
		writeJSON(w, http.StatusInternalServerError, errResponse{Error: err.Error()})
		return
	}
	s.appends.Add(1)
	if deduped {
		s.appendDedups.Add(1)
	}
	writeJSON(w, http.StatusOK, AppendResponse{
		Table:      rep.Table,
		NewCount:   rep.NewCount,
		StaleViews: rep.StaleViews,
		Refreshed:  rep.Refreshed,
		Dropped:    rep.Dropped,
		Deferred:   rep.Deferred,
		Deduped:    deduped,
	})
}

// landAppend applies one batch through the coalescer, deduplicating by
// the spec's idempotency token: a token already applied within the
// window returns the remembered result (deduped true) instead of
// appending the rows again. A token whose owning attempt failed is
// released — the waiter carries the same rows, so it retries as a fresh
// owner.
func (s *Server) landAppend(sp *ingest.Spec) (deepsea.AppendReport, bool, error) {
	if sp.Token == "" || s.dedup == nil {
		rep, err := s.coal.Add(sp.Table, sp.Rows)
		return rep, false, err
	}
	for {
		e, owner := s.dedup.claim(sp.Token)
		if owner {
			rep, err := s.coal.Add(sp.Table, sp.Rows)
			s.dedup.finish(sp.Token, e, rep, err == nil)
			return rep, false, err
		}
		<-e.done
		if e.ok {
			return e.rep, true, nil
		}
	}
}

// healthzResponse is GET /healthz: a liveness summary. Status is "ok",
// "degraded" (quarantined files, blacklisted views, journal append
// errors, a saturated maintenance queue, a stuck ingest retry backlog,
// or a recovery that fell back to a cold start) or "draining".
type healthzResponse struct {
	Status      string   `json:"status"`
	InFlight    int64    `json:"in_flight"`
	Queries     uint64   `json:"queries"`
	PoolBytes   int64    `json:"pool_bytes"`
	PoolLimit   int64    `json:"pool_limit"`
	Quarantined []string `json:"quarantined,omitempty"`
	Backoff     []string `json:"backoff,omitempty"`
	Blacklisted []string `json:"blacklisted,omitempty"`
	// Journal durability summary (all zero without a datastore):
	// JournalAppendErrors > 0 or a non-empty RecoveryError degrades the
	// status — the server still answers queries, but state written since
	// the last good append would not survive a crash.
	JournalEnabled      bool   `json:"journal_enabled,omitempty"`
	JournalAppendErrors uint64 `json:"journal_append_errors,omitempty"`
	JournalLastSeq      uint64 `json:"journal_last_seq,omitempty"`
	RecoveryError       string `json:"recovery_error,omitempty"`
	// Background maintenance summary (absent in inline mode). A
	// saturated queue degrades the status: candidates are being dropped,
	// so the pool adapts slower than the workload demands.
	MaintEnabled    bool `json:"maint_enabled,omitempty"`
	MaintQueueDepth int  `json:"maint_queue_depth,omitempty"`
	MaintSaturated  bool `json:"maint_saturated,omitempty"`
	// Range ownership, present when the server runs as one shard of a
	// scatter-gather cluster: the owned partition-key range and its
	// handoff epoch (a coordinator polls these to rebuild its routing
	// table after restart or failover).
	RangeOwned bool   `json:"range_owned,omitempty"`
	OwnedLo    int64  `json:"owned_lo,omitempty"`
	OwnedHi    int64  `json:"owned_hi,omitempty"`
	RangeEpoch uint64 `json:"range_epoch,omitempty"`
	// RangeRole is the replica role the last handoff assigned ("primary"
	// or "follower"; absent when standalone).
	RangeRole string `json:"range_role,omitempty"`
	// Ingest summary: appended batches and rows landed, incremental view
	// refreshes applied, and views currently stale awaiting a background
	// refresh (transient; stale views are never served).
	// IngestRetryBacklog > 0 degrades the status: those views are stuck
	// still-stale with no refresh scheduled — in inline mode only a
	// later append retries them, so an operator should notice.
	IngestAppends      uint64         `json:"ingest_appends,omitempty"`
	IngestRows         uint64         `json:"ingest_rows,omitempty"`
	IngestRefreshes    uint64         `json:"ingest_refreshes,omitempty"`
	IngestStaleViews   int            `json:"ingest_stale_views,omitempty"`
	IngestRetryBacklog int            `json:"ingest_retry_backlog,omitempty"`
	Admission          AdmissionStats `json:"admission"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := s.sys.Health()
	adm, _, _ := s.lim.snapshot()
	resp := healthzResponse{
		Status:              "ok",
		InFlight:            h.InFlight,
		Queries:             h.Queries,
		PoolBytes:           h.PoolBytes,
		PoolLimit:           h.PoolLimit,
		Quarantined:         h.Quarantined,
		Backoff:             h.Backoff,
		Blacklisted:         h.Blacklisted,
		JournalEnabled:      h.JournalEnabled,
		JournalAppendErrors: h.JournalAppendErrors,
		JournalLastSeq:      h.JournalLastSeq,
		RecoveryError:       h.RecoveryError,
		MaintEnabled:        h.MaintEnabled,
		MaintQueueDepth:     h.MaintQueueDepth,
		MaintSaturated:      h.MaintSaturated,
		RangeOwned:          h.RangeOwned,
		OwnedLo:             h.OwnedLo,
		OwnedHi:             h.OwnedHi,
		RangeEpoch:          h.RangeEpoch,
		RangeRole:           s.Role(),
		IngestAppends:       h.IngestAppends,
		IngestRows:          h.IngestAppendedRows,
		IngestRefreshes:     h.IngestRefreshes,
		IngestStaleViews:    h.IngestStaleViews,
		IngestRetryBacklog:  h.IngestRetryBacklog,
		Admission:           adm,
	}
	status := http.StatusOK
	if len(h.Quarantined) > 0 || len(h.Blacklisted) > 0 ||
		h.JournalAppendErrors > 0 || h.RecoveryError != "" || h.MaintSaturated ||
		h.IngestRetryBacklog > 0 {
		resp.Status = "degraded"
	}
	if s.draining.Load() {
		resp.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, resp)
}

// statzResponse is GET /statz: the full operational snapshot.
type statzResponse struct {
	Health    deepsea.Health `json:"health"`
	Admission AdmissionStats `json:"admission"`
	Serving   ServingStats   `json:"serving"`
	// InFlightSlots/QueueDepth are the limiter's instantaneous occupancy.
	InFlightSlots int `json:"in_flight_slots"`
	QueueDepth    int `json:"queue_depth"`
	// PlanAmortization is Queries / PlanAcquisitions — above 1 when
	// template batching coalesces planning.
	PlanAmortization float64 `json:"plan_amortization"`
	// SnapshotTickErrors counts failed periodic checkpoints taken by the
	// SnapshotEvery ticker (store-level counters live in Health).
	SnapshotTickErrors uint64 `json:"snapshot_tick_errors,omitempty"`
	// CompletionRate is the recent slot-turnover rate (requests per
	// second over the drain-rate window); RetryAfterHint is the
	// Retry-After a shed response would carry right now.
	CompletionRate float64 `json:"completion_rate"`
	RetryAfterHint int     `json:"retry_after_hint"`
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	h := s.sys.Health()
	adm, inflight, depth := s.lim.snapshot()
	_, appendBatches := s.coal.Stats()
	resp := statzResponse{
		Health:    h,
		Admission: adm,
		Serving: ServingStats{
			Served:        s.served.Load(),
			Failed:        s.failed.Load(),
			Shed:          s.shed.Load(),
			TimedOut:      s.timedOut.Load(),
			BadRequest:    s.badRequest.Load(),
			Appends:       s.appends.Load(),
			AppendBatches: appendBatches,
			AppendDedups:  s.appendDedups.Load(),
		},
		InFlightSlots:      inflight,
		QueueDepth:         depth,
		SnapshotTickErrors: s.snapErrs.Load(),
		CompletionRate:     s.completions.rate(time.Now()),
		RetryAfterHint:     s.retryAfter(),
	}
	if h.PlanAcquisitions > 0 {
		resp.PlanAmortization = float64(h.Queries) / float64(h.PlanAcquisitions)
	}
	writeJSON(w, http.StatusOK, resp)
}

// poolzResponse is GET /poolz: the materialized pool's contents.
type poolzResponse struct {
	Bytes     int64    `json:"bytes"`
	Limit     int64    `json:"limit"`
	Views     int      `json:"views"`
	ViewFiles int      `json:"view_files"`
	Fragments int      `json:"fragments"`
	Contents  []string `json:"contents,omitempty"`
}

func (s *Server) handlePoolz(w http.ResponseWriter, r *http.Request) {
	h := s.sys.Health()
	writeJSON(w, http.StatusOK, poolzResponse{
		Bytes:     h.PoolBytes,
		Limit:     h.PoolLimit,
		Views:     h.PoolViews,
		ViewFiles: h.PoolViewFiles,
		Fragments: h.PoolFragments,
		Contents:  s.sys.PoolContents(),
	})
}

// Replica roles a range handoff can assign. Base tables are static and
// fully replicated, so the roles do not gate reads — the primary is
// simply the coordinator's first-choice replica for the range.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
)

// Role returns the replica role the last handoff assigned ("" when the
// server is standalone or no handoff carried a role).
func (s *Server) Role() string {
	if v, ok := s.role.Load().(string); ok {
		return v
	}
	return ""
}

// rangeErrResponse is the 409 body for ownership and epoch violations.
// It names the shard's actual ownership so the coordinator can repair
// its routing table from the response alone.
type rangeErrResponse struct {
	Error      string `json:"error"`
	OwnedLo    int64  `json:"owned_lo"`
	OwnedHi    int64  `json:"owned_hi"`
	RangeEpoch uint64 `json:"range_epoch"`
}

// checkOwnership enforces the shard's published range against the
// request. Standalone servers (no owned range) accept everything; a
// sharded server rejects stale-epoch requests and requests whose
// item_sk range falls outside the owned range — both 409s carrying the
// true ownership, since they mean the caller's routing table is wrong,
// not that the query is malformed.
func (s *Server) checkOwnership(spec *QuerySpec) (rangeErrResponse, bool) {
	or, owned := s.sys.OwnedRange()
	if !owned {
		return rangeErrResponse{}, true
	}
	mk := func(format string, args ...any) rangeErrResponse {
		return rangeErrResponse{
			Error:      fmt.Sprintf(format, args...),
			OwnedLo:    or.Lo,
			OwnedHi:    or.Hi,
			RangeEpoch: or.Epoch,
		}
	}
	if spec.Epoch != 0 && spec.Epoch != or.Epoch {
		return mk("stale routing epoch %d: shard owns [%d,%d] at epoch %d",
			spec.Epoch, or.Lo, or.Hi, or.Epoch), false
	}
	if lo, hi, ok := spec.ItemRange(); ok && (lo < or.Lo || hi > or.Hi) {
		return mk("range [%d,%d] not owned: shard owns [%d,%d] at epoch %d",
			lo, hi, or.Lo, or.Hi, or.Epoch), false
	}
	return rangeErrResponse{}, true
}

// rangeRequest is the JSON body of POST /admin/range: the new ownership
// to apply. The handler runs the full fenced-handoff sequence — refuse
// new queries, drain in-flight ones, checkpoint to the datastore (best
// effort), apply the new range and epoch, re-admit — and only then
// returns, so when the coordinator sees 200 the shard is serving the
// new range. DrainTimeoutMS bounds the drain wait (default 10s).
type rangeRequest struct {
	Lo    int64  `json:"lo"`
	Hi    int64  `json:"hi"`
	Epoch uint64 `json:"epoch"`
	// Role is the replica role this handoff assigns ("primary" or
	// "follower"; empty keeps the current role). Informational — see
	// RolePrimary.
	Role           string `json:"role,omitempty"`
	DrainTimeoutMS int64  `json:"drain_timeout_ms,omitempty"`
}

// rangeResponse reports the applied ownership. SnapshotError is the
// best-effort checkpoint's failure, informational only: the handoff
// still completed (durability falls back to the journal tail).
type rangeResponse struct {
	Lo            int64  `json:"lo"`
	Hi            int64  `json:"hi"`
	Epoch         uint64 `json:"epoch"`
	Role          string `json:"role,omitempty"`
	Drained       int64  `json:"drained"`
	SnapshotError string `json:"snapshot_error,omitempty"`
}

func (s *Server) handleAdminRange(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		or, owned := s.sys.OwnedRange()
		if !owned {
			writeJSON(w, http.StatusOK, rangeResponse{Lo: 0, Hi: -1})
			return
		}
		writeJSON(w, http.StatusOK, rangeResponse{Lo: or.Lo, Hi: or.Hi, Epoch: or.Epoch, Role: s.Role()})
		return
	case http.MethodPost:
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errResponse{Error: "GET or POST only"})
		return
	}
	var req rangeRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	if req.Lo > req.Hi {
		writeJSON(w, http.StatusBadRequest, errResponse{Error: "empty range"})
		return
	}
	s.handoffMu.Lock()
	defer s.handoffMu.Unlock()
	// Epochs must advance: an older epoch is a handoff the cluster has
	// already moved past (e.g. a delayed retry), and applying it would
	// fork ownership.
	if or, owned := s.sys.OwnedRange(); owned && req.Epoch <= or.Epoch {
		writeJSON(w, http.StatusConflict, rangeErrResponse{
			Error: fmt.Sprintf("stale handoff epoch %d: shard already at epoch %d",
				req.Epoch, or.Epoch),
			OwnedLo: or.Lo, OwnedHi: or.Hi, RangeEpoch: or.Epoch,
		})
		return
	}

	// Fence, then drain: requests count themselves before checking the
	// fence, so once the count reaches zero no uncounted query is
	// executing.
	s.fencing.Store(true)
	defer s.fencing.Store(false)
	drainTimeout := 10 * time.Second
	if req.DrainTimeoutMS > 0 {
		drainTimeout = time.Duration(req.DrainTimeoutMS) * time.Millisecond
	}
	deadline := time.Now().Add(drainTimeout)
	inFlight := s.activeQueries.Load()
	drained := inFlight
	for inFlight > 0 {
		if time.Now().After(deadline) {
			writeJSON(w, http.StatusServiceUnavailable, errResponse{
				Error: fmt.Sprintf("drain timed out with %d queries in flight", inFlight)})
			return
		}
		time.Sleep(time.Millisecond)
		inFlight = s.activeQueries.Load()
	}

	resp := rangeResponse{Lo: req.Lo, Hi: req.Hi, Epoch: req.Epoch, Drained: drained}
	if err := s.sys.Snapshot(); err != nil {
		resp.SnapshotError = err.Error()
	}
	s.sys.SetOwnedRange(req.Lo, req.Hi, req.Epoch)
	if req.Role != "" {
		s.role.Store(req.Role)
	}
	resp.Role = s.Role()
	writeJSON(w, http.StatusOK, resp)
}
