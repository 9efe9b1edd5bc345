package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"deepsea/internal/cache"
	"deepsea/internal/datastore"
	"deepsea/internal/engine"
	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/lockcheck"
	"deepsea/internal/maintain"
	"deepsea/internal/matching"
	"deepsea/internal/pool"
	"deepsea/internal/query"
	"deepsea/internal/relation"
	"deepsea/internal/stats"
)

// DeepSea is one instance of the system: an engine plus the pool,
// statistics, signature index and configuration that drive Algorithm 1.
//
// ProcessQuery may be called from multiple goroutines. Queries answered
// from the result cache take no manager lock at all. The manager steps
// of Algorithm 1 split across two layers: planMu, a short-lived planning
// lock that serializes the read-mostly bookkeeping of steps 1–7
// (matching statistics, candidate generation, the signature tree), and a
// per-view striped lock set under which maintenance (steps 9+:
// materialize, evict, split, merge, refinement) runs holding only the
// stripes of the views the query reads or mutates — so mutating queries
// over disjoint views proceed in parallel. Planning holds every stripe
// shared, which both stabilizes the pool it plans against and licenses
// its statistics writes. Step 8 — the row execution itself, where the
// time goes — runs outside all manager locks, so concurrent queries
// overlap on the data path. Lock order: planMu before view stripes
// (ascending index) before pinMu. See DESIGN.md, "Concurrency model".
type DeepSea struct {
	Cfg   Config
	Eng   *engine.Engine
	Pool  *pool.Pool
	Stats *stats.Registry
	Tree  *matching.FilterTree

	// Cache is the fingerprint-keyed result cache; nil unless
	// Config.CacheBytes is positive.
	Cache *cache.ResultCache

	// OnPlanned, when set, observes the end of the planning section: it
	// is called with the query's sorted view lock set right after the
	// planning locks are released, before execution. The caller holds no
	// manager lock at that point, so the hook may block without stalling
	// other queries' planning. Test and benchmark observability only —
	// set it before any concurrent use and never call back into the
	// manager from it.
	OnPlanned func(viewIDs []string)

	// OnMaintain, when set, observes the maintenance section: it is
	// called with the query's sorted view lock set right after the view
	// stripes are acquired (enter=true) and right before they are
	// released (enter=false). The hook runs holding the query's write
	// stripes — planning (which reads every stripe) stalls for as long
	// as it blocks. Test and benchmark observability only — set it
	// before any concurrent use and never call back into the manager
	// from it.
	OnMaintain func(viewIDs []string, enter bool)

	rewriter *matching.Rewriter

	// faults is the configured injector (nil when fault-free); the same
	// instance is attached to the engine and its file system.
	faults *faults.Injector

	// backoff tracks per-view materialization failures: failed
	// materializations never fail queries, they count toward the view's
	// blacklist instead.
	backoff *matBackoff

	// planMu is the planning lock: it serializes Algorithm 1's steps
	// 1–7 — statistics and filter-tree mutation, candidate generation,
	// the mleCache — across queries. It is held only for planning,
	// never across execution or maintenance, so it stays short-lived.
	planMu sync.Mutex

	// views is the per-view striped lock set. Planning (under planMu)
	// holds every stripe shared; maintenance holds the stripes of the
	// query's own views exclusive. Pool *content* (fragment lists, view
	// files) and per-view statistics records change only under the
	// owning view's exclusive stripe, or under planMu with every stripe
	// held shared.
	views *viewLocks

	// pinned counts, per storage path, the in-flight executions whose
	// plan reads the path. Eviction, merging and horizontal-split drops
	// skip pinned paths so a concurrent query never loses a file it was
	// planned against. Guarded by pinMu (innermost manager lock).
	pinMu  sync.Mutex
	pinned map[string]int

	// mleCache memoizes MLE fits within one selection pass. Guarded by
	// planMu.
	mleCache     map[mleKey]stats.NormalModel
	mleCacheTime float64

	// planAcq counts planMu acquisitions; inflight and queries count
	// in-flight and started queries. Batch processing acquires planMu
	// once for many queries, so planAcq < queries proves coalescing.
	planAcq  atomic.Uint64
	inflight atomic.Int64
	queries  atomic.Uint64

	// quarMu guards quarLog, the cumulative list of storage paths ever
	// quarantined, and parkedRemat, the re-materializations of paths
	// whose quarantining query is still retrying (leaf lock: never held
	// while acquiring another).
	quarMu      sync.Mutex
	quarLog     []string
	parkedRemat map[string]*rematTask

	// store is the persistence boundary (nil without a datastore): every
	// pool/engine/stats mutation journals through it, and Snapshot
	// checkpoints into it. recovered reports what recovery did when the
	// instance was built.
	store     datastore.Store
	recovered RecoveryInfo

	// maint is the background maintenance pool (nil in inline mode).
	// maintCommitMu serializes drain-cycle commits: the journal group
	// buffer below is instance-global, so one committer runs at a time
	// (untracked leaf lock, acquired before any view stripe).
	maint         *maintain.Pool
	maintCommitMu sync.Mutex

	// groupMu guards the journal group buffer: while a drain cycle has a
	// group open (grouping), appendRecord buffers records into groupBuf
	// instead of appending them individually (leaf lock).
	groupMu  sync.Mutex
	grouping bool
	groupBuf []*datastore.Record

	// ownedRange is the partition-key range this instance owns when it
	// serves as one shard of a scatter-gather cluster (nil when
	// standalone). Published atomically so Health and the serving layer
	// read it without a lock; the epoch fences stale coordinator routing
	// across handoffs.
	ownedRange atomic.Pointer[OwnedRange]

	// ingest is the append-path registry: which views depend on which
	// base tables, each view's refresh consistency point, and the
	// accumulated append log for snapshots (see ingest.go).
	ingest *ingestState

	// recoveredAppends buffers appends found during recovery (snapshot
	// payload + append_rows journal tail) until the host re-adds the
	// base catalog and calls ApplyRecoveredAppends; the order slice
	// keeps replay deterministic.
	recoveredAppends     map[string]*relation.Table
	recoveredAppendOrder []string
}

// OwnedRange is the contiguous partition-key range a sharded instance
// is responsible for, plus the handoff epoch it was assigned under.
type OwnedRange struct {
	Lo, Hi int64
	Epoch  uint64
}

// New assembles a DeepSea instance (or a baseline, depending on cfg).
// With a datastore configured it first recovers the previous life's
// state (snapshot load + journal tail replay), then attaches the
// journal hooks so new mutations are durable. A fatal recovery failure
// (corrupt snapshot, a recovered pool that fails its consistency walk)
// never fails construction: the instance starts cold, the failure is
// reported via Recovery()/Health, and a cold snapshot overwrites the
// stored state so the bad history cannot replay again.
func New(cfg Config) *DeepSea {
	d := build(cfg)
	if cfg.Datastore != nil {
		d.store = cfg.Datastore
		if err := d.recoverFromStore(); err != nil {
			info := d.recovered
			info.Err = err.Error()
			d.CloseMaintenance()
			d = build(cfg)
			d.store = cfg.Datastore
			d.recovered = info
			_ = d.Snapshot()
		}
		d.Pool.SetJournal(d.appendRecord)
		d.Eng.SetJournal(d.appendRecord)
		d.Stats.SetJournal(d.appendRecord)
		if d.faults != nil {
			d.store.SetFaults(d.faults)
		}
	}
	return d
}

// build assembles the in-memory components; recovery and journaling are
// layered on by New.
func build(cfg Config) *DeepSea {
	cm := engine.DefaultCostModel()
	if cfg.CostModel != nil {
		cm = *cfg.CostModel
	}
	eng := engine.New(cm)
	eng.ExecuteRows = cfg.ExecuteRows
	if cfg.Parallelism > 0 {
		eng.Parallelism = cfg.Parallelism
	}
	var inj *faults.Injector
	if cfg.Faults != nil {
		inj = faults.New(*cfg.Faults)
		eng.SetFaults(inj)
	}
	p := pool.New(cfg.Smax)
	st := stats.NewShardedRegistry(stats.Decay{TMax: cfg.DecayTMax}, cfg.StatsShards)
	tree := matching.NewFilterTree()
	var rc *cache.ResultCache
	if cfg.CacheBytes > 0 {
		rc = cache.NewWithEntryLimit(cfg.CacheBytes, cfg.cacheMaxEntryBytes())
	}
	d := &DeepSea{
		Cache:   rc,
		Cfg:     cfg,
		Eng:     eng,
		Pool:    p,
		Stats:   st,
		Tree:    tree,
		views:   newViewLocks(cfg.LockStripes),
		pinned:  make(map[string]int),
		faults:  inj,
		backoff: newMatBackoff(),
		rewriter: &matching.Rewriter{
			Eng:          eng,
			Pool:         p,
			Stats:        st,
			Tree:         tree,
			PhysicalOnly: cfg.PhysicalMatch,
		},
		ingest:           newIngestState(),
		recoveredAppends: make(map[string]*relation.Table),
	}
	d.rewriter.Stale = d.staleView
	if cfg.background() {
		d.maint = maintain.NewPool(cfg.MaintWorkers, cfg.maintQueue(), maintBatchMax, d.applyMaintBatch)
	}
	return d
}

// AddBaseTable registers a base table with the engine.
func (d *DeepSea) AddBaseTable(t *relation.Table) { d.Eng.AddBaseTable(t) }

// Now returns the simulated clock.
func (d *DeepSea) Now() float64 { return d.Eng.Now() }

// cacheKey builds the result-cache key for a user query: the canonical
// plan fingerprint qualified by the base-catalog version and by the row
// count of every base table the plan reads. A catalog change orphans
// every earlier entry; an append moves the counts (they are monotone),
// so a result cached before the append is unreachable by any lookup
// planned after it — the cache needs no explicit invalidation on
// ingest.
func (d *DeepSea) cacheKey(q query.Node) string {
	var b strings.Builder
	b.WriteString(query.Fingerprint(q))
	b.WriteByte('@')
	b.WriteString(strconv.FormatUint(d.Eng.BaseVersion(), 10))
	tables := append([]string(nil), query.BaseTables(q)...)
	sort.Strings(tables)
	counts := d.Eng.BaseCounts(tables)
	for _, t := range tables {
		b.WriteByte('|')
		b.WriteString(t)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(counts[t], 10))
	}
	return b.String()
}

// viewDeps lists the materialized views a plan reads, each pinned to
// its pool generation from one epoch-published snapshot. On the inline
// path the caller holds the stripes of every view the plan reads (they
// are part of the maintenance lock set), so the generations are exactly
// the post-maintenance state; on the deferred path the snapshot may lag
// a concurrent background commit, which at worst invalidates the entry
// immediately — never serves a stale one.
func (d *DeepSea) viewDeps(plan query.Node) []cache.Dep {
	gen := d.Pool.GenFn()
	seen := make(map[string]bool)
	var deps []cache.Dep
	query.Walk(plan, func(n query.Node) {
		vs, ok := n.(*query.ViewScan)
		if !ok || seen[vs.ViewID] {
			return
		}
		seen[vs.ViewID] = true
		deps = append(deps, cache.Dep{ViewID: vs.ViewID, Gen: gen(vs.ViewID)})
	})
	return deps
}

// maintenanceViews computes the query's view lock set: every view its
// plan may read or mutate — ViewScans of the executed plan (cache-entry
// generations and merge sources), view candidates (step 9 measures their
// sizes; selected ones materialize), fragment candidates (refinement
// targets), eviction victims, and the merge target. Returned sorted by
// id (the canonical order) and deduplicated.
func maintenanceViews(qbest query.Node, vcands []viewCandidate, selFrags []fragCandidate, evict []pool.Candidate, bestRW *matching.Rewriting) []string {
	seen := make(map[string]bool)
	var ids []string
	add := func(id string) {
		if id == "" || seen[id] {
			return
		}
		seen[id] = true
		ids = append(ids, id)
	}
	query.Walk(qbest, func(n query.Node) {
		if vs, ok := n.(*query.ViewScan); ok {
			add(vs.ViewID)
		}
	})
	for _, vc := range vcands {
		add(vc.id)
	}
	for _, fc := range selFrags {
		add(fc.viewID)
	}
	for _, c := range evict {
		add(c.ViewID)
	}
	if bestRW != nil {
		add(bestRW.ViewID)
	}
	sort.Strings(ids)
	return ids
}

// Faults exposes the configured fault injector (nil when fault-free) —
// chaos-test and bench observability.
func (d *DeepSea) Faults() *faults.Injector { return d.faults }

// ProcessQuery implements Algorithm 1 for one query and returns a report
// of how it was answered and what the pool did in response.
func (d *DeepSea) ProcessQuery(q query.Node) (QueryReport, error) {
	return d.ProcessQueryContext(context.Background(), q)
}

// ProcessQueryContext is ProcessQuery with cancellation and graceful
// degradation. A cancelled or expired ctx makes the call return
// promptly with ctx.Err(), with every view stripe released, all pins
// dropped and the pool consistent. Recoverable faults degrade instead
// of failing the query: a failed fragment or view-file read quarantines
// that file (pool removal, which also bumps the view's generation and
// so invalidates cached results over it) and the query is re-planned
// against the shrunken pool — falling back to base tables when nothing
// usable remains; a transient worker fault re-executes the query. Both
// are bounded by Config.FaultRetries. Failed materializations never
// fail the query (see processOnce).
func (d *DeepSea) ProcessQueryContext(ctx context.Context, q query.Node) (QueryReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return QueryReport{}, err
	}
	d.queries.Add(1)
	d.inflight.Add(1)
	defer d.inflight.Add(-1)

	// Result-cache lookup — before planning and off every manager lock.
	// Generation checks read one epoch-published snapshot of the pool's
	// generation map (no lock at all), so a hit is consistent: no entry
	// over an evicted or split view survives.
	var key string
	if d.Cache != nil && d.Cfg.ExecuteRows {
		key = d.cacheKey(q)
		if tbl, ok := d.Cache.Get(key, d.Pool.GenFn()); ok {
			return QueryReport{Result: tbl, CacheHit: true}, nil
		}
	}

	return d.processWithRetries(ctx, q, key)
}

// processWithRetries is the retry loop of ProcessQueryContext, shared
// with batch processing (whose items fall back here after a recoverable
// first-attempt failure).
func (d *DeepSea) processWithRetries(ctx context.Context, q query.Node, key string) (QueryReport, error) {
	maxRetries := d.Cfg.faultRetries()
	var quarantined []string
	defer func() { d.releaseRemat(quarantined) }()
	for attempt := 0; ; attempt++ {
		rep, quar, err := d.processOnce(ctx, q, key)
		quarantined = append(quarantined, quar...)
		if err == nil {
			rep.Quarantined = quarantined
			rep.Retries = attempt
			return rep, nil
		}
		// Cancellation always wins: do not spend retries on a dead query.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return QueryReport{}, ctxErr
		}
		f, ok := faults.AsFault(err)
		if !ok || attempt >= maxRetries {
			return QueryReport{}, err
		}
		switch {
		case f.Site == faults.StorageRead:
			// The unreadable file was quarantined above (or is pinned by
			// a concurrent query and left in place); re-plan against the
			// current pool — with the file gone the new plan answers the
			// lost range from base tables.
		case f.Site == faults.Worker && !f.Permanent:
			// Transient worker fault (lost container, timeout): the plan
			// is fine, re-execute it.
		default:
			return QueryReport{}, err
		}
	}
}

// processOnce runs one attempt of Algorithm 1. It returns the paths it
// quarantined while handling an execution failure (the caller
// accumulates them across retries).
func (d *DeepSea) processOnce(ctx context.Context, q query.Node, key string) (QueryReport, []string, error) {
	if !d.Cfg.Materialize {
		// Vanilla engine: the optimizer pushes selections down to the
		// scans (DeepSea deliberately does not, Section 10.2); execute
		// and account time, nothing else.
		res, err := d.Eng.RunContext(ctx, query.PushDownRanges(q), nil)
		if err != nil {
			return QueryReport{}, nil, err
		}
		d.Eng.Advance(res.Cost.Seconds)
		if key != "" && res.Table != nil {
			d.Cache.Put(key, res.Table, nil)
		}
		return QueryReport{
			Result:       res.Table,
			ExecCost:     res.Cost,
			TotalSeconds: res.Cost.Seconds,
		}, nil, nil
	}

	// Planning section: Algorithm 1 steps 1-7. planMu serializes the
	// statistics and candidate bookkeeping; every view stripe is held
	// shared, so no maintenance runs anywhere while this query plans —
	// the pool it matches against is stable, and its statistics writes
	// (use records, candidate refinement) cannot race a maintainer.
	// Pinning before release guarantees no concurrent query evicts a
	// path between planning and execution.
	lockcheck.Acquire(lockcheck.RankPlan, 0, "planMu")
	d.planAcq.Add(1)
	d.planMu.Lock()
	d.views.rlockAll()
	pq, err := d.planLocked(q, key)
	d.views.runlockAll()
	d.planMu.Unlock()
	lockcheck.Release(lockcheck.RankPlan, 0, "planMu")
	if err != nil {
		return QueryReport{}, nil, err
	}
	if d.OnPlanned != nil {
		d.OnPlanned(pq.lockIDs)
	}
	return d.finishPlanned(ctx, pq)
}

// plannedQuery carries one query's planning output (Algorithm 1 steps
// 1–7) from the planning section to execution and maintenance. Pins on
// every materialized path the plan reads are already taken; finishPlanned
// drops them on every path.
type plannedQuery struct {
	key      string
	qbest    query.Node
	bestRW   *matching.Rewriting
	vcands   []viewCandidate
	selViews []selectedView
	selFrags []fragCandidate
	evict    []pool.Candidate
	capture  map[query.Node]bool
	lockIDs  []string
	pins     []string
	// baseCounts is the per-table row count of every base table the
	// query reads, captured at planning time. Materialization uses it as
	// the proposed view's ingest consistency point: if the counts still
	// match when the captured rows register, no append raced the
	// execution (counts are monotone), so the content is exact at these
	// counts.
	baseCounts map[string]int64
}

// planLocked runs Algorithm 1 steps 1–7 for one query and pins the
// materialized paths its chosen plan reads. The caller holds planMu and
// every view stripe shared; batch processing calls it once per query
// under a single acquisition, which is why the lock handling lives in
// the callers.
func (d *DeepSea) planLocked(q query.Node, key string) (*plannedQuery, error) {
	// Step 1-2: compute rewritings and update statistics (Section 8.4).
	rewritings, origCost, err := d.rewriter.ComputeRewritings(q)
	if err != nil {
		return nil, err
	}
	d.updateUseStats(rewritings, origCost)

	// Step 3: SELECTREWRITING — cheapest executable plan.
	qbest := q
	var bestRW *matching.Rewriting
	bestSeconds := origCost.Seconds
	for i := range rewritings {
		rw := &rewritings[i]
		if rw.UsesPool && rw.EstCost.Seconds < bestSeconds {
			bestSeconds = rw.EstCost.Seconds
			qbest = rw.Plan
			bestRW = rw
		}
	}

	// Steps 4-5: candidate generation (Definitions 6 and 7) and
	// registration (ADDCANDIDATES).
	vcands := d.viewCandidates(q, qbest)
	fcands := d.fragCandidates(q, bestRW)

	// Step 6: VIEWSELECTION — filter (7.2) and greedy selection (7.3).
	selViews, selFrags, evict := d.selectConfiguration(vcands, fcands)

	// Step 7: INSTRUMENTQUERY — capture candidate intermediates.
	capture := make(map[query.Node]bool)
	for _, vc := range vcands {
		capture[vc.node] = true
	}
	for _, fc := range selFrags {
		if fc.fromGap {
			capture[fc.gapNode] = true
		}
	}

	// The maintenance lock set is fixed while the pool is still stable:
	// every view the plan reads or the maintenance below may touch.
	mergeRW := bestRW
	if !d.Cfg.MergeFragments {
		mergeRW = nil
	}
	lockIDs := maintenanceViews(qbest, vcands, selFrags, evict, mergeRW)

	// Pin every materialized path the plan reads, then release the
	// planning locks for the long step: concurrent queries may plan and
	// execute while this one runs, but cannot evict what it reads.
	pins := planPins(qbest)
	d.pin(pins)
	tables := append([]string(nil), query.BaseTables(q)...)
	sort.Strings(tables)
	return &plannedQuery{
		key:        key,
		qbest:      qbest,
		bestRW:     bestRW,
		vcands:     vcands,
		selViews:   selViews,
		selFrags:   selFrags,
		evict:      evict,
		capture:    capture,
		lockIDs:    lockIDs,
		pins:       pins,
		baseCounts: d.Eng.BaseCounts(tables),
	}, nil
}

// finishPlanned runs Algorithm 1 steps 8+ for a planned query: execution
// outside every manager lock, then maintenance under the query's view
// stripes. It returns the paths it quarantined while handling an
// execution failure.
func (d *DeepSea) finishPlanned(ctx context.Context, pq *plannedQuery) (QueryReport, []string, error) {
	qbest, bestRW := pq.qbest, pq.bestRW
	vcands, selViews, selFrags, evict := pq.vcands, pq.selViews, pq.selFrags, pq.evict
	lockIDs, pins, key := pq.lockIDs, pq.pins, pq.key

	// Step 8: EXECUTEQUERY — outside every manager lock.
	res, runErr := d.Eng.RunContext(ctx, qbest, pq.capture)
	if runErr != nil {
		// Failed executions skip maintenance entirely: drop the pins,
		// quarantine the unreadable file if the failure was an injected
		// storage-read fault, and let the caller decide whether to
		// re-plan. No view stripe is held on this path.
		d.unpin(pins)
		return QueryReport{}, d.quarantineFromError(qbest, runErr), runErr
	}

	// Background mode: the query is done — hand steps 9+ to the worker
	// pool as Φ-ranked per-unit tasks and return without touching a
	// single view stripe. The query pays execution cost only; the
	// deferred mutations re-validate against the live pool when a drain
	// cycle applies them.
	if d.maint != nil {
		d.unpin(pins)
		report := QueryReport{
			Result:              res.Table,
			ExecCost:            res.Cost,
			TotalSeconds:        res.Cost.Seconds,
			DeferredMaintenance: true,
		}
		if bestRW != nil {
			report.Rewritten = true
			report.UsedView = bestRW.ViewID
			report.FragmentsRead = len(bestRW.CoverFrags)
			report.RemainderGaps = len(bestRW.Gaps)
		}
		report.MaintTasksEnqueued = d.enqueueMaintenance(pq, res.Captured)
		d.Eng.Advance(res.Cost.Seconds)
		if key != "" && res.Table != nil {
			d.Cache.Put(key, res.Table, d.viewDeps(qbest))
		}
		return report, nil, nil
	}

	// Maintenance section: steps 9+ (stats, pool maintenance, clock)
	// under only this query's view stripes, exclusive. Queries whose
	// lock sets cover disjoint stripes run their maintenance — including
	// materialization, refinement and eviction — in parallel; the
	// selection above was computed against a possibly older pool, so
	// every mutation below re-validates against the live pool (pins,
	// cover checks) exactly as a stale selection requires.
	held := d.views.lockViews(lockIDs)
	if d.OnMaintain != nil {
		d.OnMaintain(lockIDs, true)
	}
	defer func() {
		if d.OnMaintain != nil {
			d.OnMaintain(lockIDs, false)
		}
		d.views.unlockViews(held)
	}()
	d.unpin(pins)

	// Step 9: UPDATESTATS — precise sizes for captured candidates.
	if d.Cfg.ExecuteRows {
		for _, vc := range vcands {
			if tbl := res.Captured[vc.node]; tbl != nil {
				vs := d.Stats.View(vc.id)
				if !vs.Measured {
					vs.Size = tbl.Bytes()
					d.journalVStat(vs)
				}
			}
		}
	}

	report := QueryReport{
		Result:   res.Table,
		ExecCost: res.Cost,
	}
	if bestRW != nil {
		report.Rewritten = true
		report.UsedView = bestRW.ViewID
		report.FragmentsRead = len(bestRW.CoverFrags)
		report.RemainderGaps = len(bestRW.Gaps)
	}

	// Materialize selected views and fragments. Materialization is a
	// best-effort side effect: an injected fault in an attempt charges
	// whatever cost was already spent, records the failure against the
	// view's backoff (bounded retries, then blacklist) and moves on —
	// the query itself never fails because of it. Non-fault errors are
	// logic bugs and still propagate.
	var matCost engine.Cost
	noteMatFault := func(viewID string, err error) bool {
		f, ok := faults.AsFault(err)
		if !ok {
			return false
		}
		d.backoff.noteFailure(viewID, f.Permanent)
		report.MatFailed = append(report.MatFailed, viewID)
		return true
	}
	for _, sv := range selViews {
		if !d.backoff.allowed(sv.vc.id) {
			continue
		}
		usedByQuery := bestRW != nil && bestRW.ViewID == sv.vc.id
		c, created, err := d.materializeView(sv, res.Captured[sv.vc.node], usedByQuery, pq.baseCounts)
		matCost.Add(c)
		if err != nil {
			if noteMatFault(sv.vc.id, err) {
				continue
			}
			return QueryReport{}, nil, err
		}
		if !created {
			continue
		}
		d.backoff.noteSuccess(sv.vc.id)
		report.MaterializedViews = append(report.MaterializedViews, sv.vc.id)
	}
	for _, fc := range selFrags {
		if !d.backoff.allowed(fc.viewID) {
			continue
		}
		c, created, err := d.materializeFrag(fc, res.Captured, pq.baseCounts)
		matCost.Add(c)
		if err != nil {
			if noteMatFault(fc.viewID, err) {
				continue
			}
			return QueryReport{}, nil, err
		}
		if len(created) > 0 {
			d.backoff.noteSuccess(fc.viewID)
		}
		for _, iv := range created {
			report.MaterializedFrags = append(report.MaterializedFrags,
				fmt.Sprintf("%s.%s%s", shortID(fc.viewID), fc.attr, iv))
		}
	}

	// Optional extension: merge co-accessed adjacent fragments. A merge
	// is a materialization too: injected faults back off, never fail the
	// query.
	mergeCost, mergedFrags, err := d.maybeMergeFragments(bestRW)
	matCost.Add(mergeCost)
	if err != nil {
		if bestRW == nil || !noteMatFault(bestRW.ViewID, err) {
			return QueryReport{}, nil, err
		}
	}
	report.MergedFrags = mergedFrags

	// Evict what the selection rejected. Items pinned by a concurrent
	// execution are skipped; the selection will reject them again next
	// query if they stay unattractive.
	for _, item := range evict {
		if d.evict(item) {
			report.Evicted = append(report.Evicted, item.Key())
		}
	}
	matCost.Add(d.settleRetryBacklog(lockIDs))
	// GC only the views this query touched: emptying a view requires
	// mutating it, and every mutation above stayed inside the lock set.
	d.Pool.GCViews(lockIDs...)

	report.MatCost = matCost
	report.TotalSeconds = res.Cost.Seconds + matCost.Seconds
	d.Eng.Advance(report.TotalSeconds)

	// Publish the result, pinned to the post-maintenance generations of
	// every view the plan read — so this query's own refinements do not
	// immediately invalidate its entry, while any later mutation of
	// those views does. The read views' stripes are still held, so the
	// recorded generations cannot move before the entry is in.
	if key != "" && res.Table != nil {
		d.Cache.Put(key, res.Table, d.viewDeps(qbest))
	}
	return report, nil, nil
}

// quarantineFromError quarantines the stored file named by an injected
// storage-read fault in runErr: the file is removed from the engine and
// the pool (bumping the owning view's generation, which invalidates
// every cached result over it), so the retry's planning cannot choose
// it again. Returns the quarantined paths (nil when runErr is not a
// read fault, the path is not in the executed plan, or the file is
// pinned by a concurrent query — which keeps it alive until that query
// drains).
func (d *DeepSea) quarantineFromError(plan query.Node, runErr error) []string {
	f, ok := faults.AsFault(runErr)
	if !ok || f.Site != faults.StorageRead || f.Key == "" {
		return nil
	}
	// Resolve the owning view from the failing attempt's own plan — the
	// fault's key is a path the plan read, so one of its ViewScans names
	// it.
	viewID := ""
	query.Walk(plan, func(n query.Node) {
		vs, ok := n.(*query.ViewScan)
		if !ok || viewID != "" {
			return
		}
		if vs.ViewPath == f.Key {
			viewID = vs.ViewID
			return
		}
		for _, p := range vs.FragIDs {
			if p == f.Key {
				viewID = vs.ViewID
				return
			}
		}
	})
	if viewID == "" {
		return nil
	}
	if d.quarantine(viewID, f.Key) {
		d.quarMu.Lock()
		d.quarLog = append(d.quarLog, f.Key)
		d.quarMu.Unlock()
		return []string{f.Key}
	}
	return nil
}

// quarantine removes one stored file of a view from the engine and the
// pool, under the view's exclusive stripe. Files still pinned by a
// concurrent execution are left alone: that query planned against them,
// and dropping them now would turn its read into a missing-file logic
// error. Reports whether the file was removed.
//
// In background mode the rows are captured before the delete and a
// speculative re-materialization task is parked (see parkRemat): the
// read fault was transient (the simulated store still holds the rows),
// so the pool can be healed without waiting for a future query to
// re-derive the range.
func (d *DeepSea) quarantine(viewID, path string) bool {
	held := d.views.lockViews([]string{viewID})
	defer d.views.unlockViews(held)
	if d.isPinned(path) {
		return false
	}
	pv := d.Pool.View(viewID)
	if pv == nil {
		return false
	}
	if pv.Path == path {
		var rows *relation.Table
		if d.maint != nil {
			rows = d.Eng.Materialized(path)
		}
		size, schema := pv.Size, pv.Schema
		d.Eng.DeleteMaterialized(path)
		d.Pool.DropViewFile(viewID)
		d.Pool.GCViews(viewID)
		d.parkRemat(&rematTask{
			viewID: viewID, path: path, schema: schema,
			isView: true, rows: rows, size: size,
		})
		return true
	}
	for attr, part := range pv.Parts {
		for _, fr := range part.Fragments() {
			if fr.Path == path {
				var rows *relation.Table
				if d.maint != nil {
					rows = d.Eng.Materialized(path)
				}
				d.Eng.DeleteMaterialized(path)
				d.Pool.RemoveFragment(viewID, attr, fr.Iv)
				d.Pool.GCViews(viewID)
				d.parkRemat(&rematTask{
					viewID: viewID, path: path, schema: pv.Schema,
					attr: attr, iv: fr.Iv, dom: part.Dom,
					overlapping: part.Overlapping,
					rows:        rows, size: fr.Size,
				})
				return true
			}
		}
	}
	return false
}

// evict removes one pool item and its storage. It reports whether the
// item was actually removed: items missing from the pool or pinned by a
// concurrent execution are left alone. The caller holds the item's view
// stripe exclusively.
func (d *DeepSea) evict(item pool.Candidate) bool {
	pv := d.Pool.View(item.ViewID)
	if pv == nil {
		return false
	}
	switch item.Kind {
	case pool.WholeView:
		if pv.Path == "" || d.isPinned(pv.Path) {
			return false
		}
		d.Eng.DeleteMaterialized(pv.Path)
		d.Pool.DropViewFile(item.ViewID)
		return true
	case pool.Frag:
		part := pv.Parts[item.Attr]
		if part == nil {
			return false
		}
		f, ok := part.Lookup(item.Iv)
		if !ok || d.isPinned(f.Path) {
			return false
		}
		d.Eng.DeleteMaterialized(f.Path)
		d.Pool.RemoveFragment(item.ViewID, item.Attr, item.Iv)
		return true
	}
	return false
}

// planPins collects the materialized paths a plan reads: every
// ViewScan's fragment files, or its whole-view file when unpartitioned.
// Walk descends into remainder subplans, so nested ViewScans are
// covered.
func planPins(plan query.Node) []string {
	var paths []string
	query.Walk(plan, func(n query.Node) {
		vs, ok := n.(*query.ViewScan)
		if !ok {
			return
		}
		if len(vs.FragIDs) > 0 {
			paths = append(paths, vs.FragIDs...)
		} else if vs.ViewPath != "" {
			paths = append(paths, vs.ViewPath)
		}
	})
	return paths
}

// pin increments the in-flight read count of each path. Called only
// from the planning section (planMu + all stripes shared).
func (d *DeepSea) pin(paths []string) {
	lockcheck.Acquire(lockcheck.RankPin, 0, "pinMu")
	d.pinMu.Lock()
	for _, p := range paths {
		d.pinned[p]++
	}
	d.pinMu.Unlock()
	lockcheck.Release(lockcheck.RankPin, 0, "pinMu")
}

// unpin reverses pin.
func (d *DeepSea) unpin(paths []string) {
	lockcheck.Acquire(lockcheck.RankPin, 0, "pinMu")
	d.pinMu.Lock()
	for _, p := range paths {
		if d.pinned[p] <= 1 {
			delete(d.pinned, p)
		} else {
			d.pinned[p]--
		}
	}
	d.pinMu.Unlock()
	lockcheck.Release(lockcheck.RankPin, 0, "pinMu")
}

// isPinned reports whether a concurrent execution still reads path.
// Mutators call it before dropping a file; they hold the owning view's
// stripe exclusively, so a pin observed as zero cannot reappear for a
// path the mutator is about to drop: new pins are taken only during
// planning, which holds every stripe shared and is therefore excluded
// while the mutator runs.
func (d *DeepSea) isPinned(path string) bool {
	lockcheck.Acquire(lockcheck.RankPin, 0, "pinMu")
	d.pinMu.Lock()
	p := d.pinned[path] > 0
	d.pinMu.Unlock()
	lockcheck.Release(lockcheck.RankPin, 0, "pinMu")
	return p
}

// shortID returns a compact stable hash of a view id for paths and logs.
func shortID(id string) string {
	h := fnv.New32a()
	h.Write([]byte(id))
	return fmt.Sprintf("v%08x", h.Sum32())
}

func (d *DeepSea) viewPath(id string) string {
	return "views/" + shortID(id) + "/full"
}

func (d *DeepSea) fragPath(id, attr string, iv interval.Interval) string {
	return fmt.Sprintf("views/%s/%s/%s", shortID(id), attr, iv)
}
