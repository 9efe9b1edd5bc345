package core

import (
	"context"
	"fmt"
	"sort"

	"deepsea/internal/engine"
	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/maintain"
	"deepsea/internal/matching"
	"deepsea/internal/partition"
	"deepsea/internal/pool"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// This file is the background maintenance dataflow (Config.MaintWorkers
// > 0): queries enqueue Φ-ranked per-unit maintenance tasks after
// execution and return immediately — they never pay for
// materialization, splits, merges or eviction. A bounded worker pool
// (internal/maintain) drains the queue in batches; one drain cycle
// commits all its pool mutations under a single acquisition of the
// union of the batch's view stripes, and journals its records as one
// group append.
//
// Correctness rests on the same property the batch planner already
// leans on: every maintenance mutation re-validates against the live
// pool (pins, cover checks, idempotent writes), so a task applied
// against a pool newer than the one it was planned on either does the
// same work or skips as stale. Results are unaffected either way —
// rewrites are exact, so query output is byte-identical whether
// maintenance ran inline, later, or not at all.

// maintBatchMax bounds how many tasks one drain cycle commits under a
// single stripe acquisition.
const maintBatchMax = 64

// matViewTask materializes a selected view (whole or its admitted
// initial fragments). captured carries the rows computed as a
// by-product of the proposing query's execution (nil in estimate-only
// mode, or when the rows must be reconstructed from an existing
// partition at apply time).
type matViewTask struct {
	sv       selectedView
	captured *relation.Table
	// baseCounts is the proposing query's planning-time base-table row
	// counts — the ingest consistency point the captured rows register
	// under (see registerIngestView).
	baseCounts map[string]int64
}

// matFragTask materializes one selected fragment candidate: a gap
// recovery (fromGap, rows captured from the remainder execution) or a
// refinement split over existing fragments.
type matFragTask struct {
	fc         fragCandidate
	captured   *relation.Table
	baseCounts map[string]int64
}

// mergeTask merges co-accessed adjacent fragments of the rewriting the
// proposing query executed (Section 11 extension).
type mergeTask struct {
	rw *matching.Rewriting
}

// measuredSize carries a step-9 size measurement: the candidate's
// captured output size, applied to its ViewStat under the view stripe.
type measuredSize struct {
	id    string
	bytes int64
}

// sweepTask applies the low-priority bookkeeping of one query's
// maintenance round: precise size measurements for captured candidates
// and the eviction of selection-rejected pool items.
type sweepTask struct {
	measure []measuredSize
	evict   []pool.Candidate
}

// rematTask speculatively re-materializes a quarantined file: the rows
// were intact in the simulated store when the read fault quarantined
// the path, so the pool can be healed in the background instead of
// waiting for a future query to re-derive the range.
type rematTask struct {
	viewID string
	path   string
	schema relation.Schema
	// isView marks a whole-view file; otherwise attr/iv/dom/overlapping
	// describe the lost fragment.
	isView      bool
	attr        string
	iv          interval.Interval
	dom         interval.Interval
	overlapping bool
	rows        *relation.Table // nil in estimate-only mode
	size        int64
}

// maintTaskViews lists the views a task's apply may touch — the drain
// cycle locks the union of these exclusively.
func maintTaskViews(t *maintain.Task) []string {
	switch p := t.Payload.(type) {
	case *matViewTask:
		return []string{p.sv.vc.id}
	case *matFragTask:
		return []string{p.fc.viewID}
	case *mergeTask:
		return []string{p.rw.ViewID}
	case *sweepTask:
		ids := make([]string, 0, len(p.measure)+len(p.evict))
		for _, m := range p.measure {
			ids = append(ids, m.id)
		}
		for _, c := range p.evict {
			ids = append(ids, c.ViewID)
		}
		return ids
	case *rematTask:
		return []string{p.viewID}
	case *refreshTask:
		return []string{p.viewID}
	}
	return nil
}

// enqueueMaintenance converts one planned query's maintenance decisions
// into per-unit background tasks, deduplicated by view id and pool
// generation: the same candidate proposed twice against an unchanged
// pool queues once; after the pool moved, it may queue again (and the
// apply-side re-validation makes the second application a no-op).
// Returns how many tasks were accepted.
func (d *DeepSea) enqueueMaintenance(pq *plannedQuery, captured map[query.Node]*relation.Table) int {
	n := 0
	push := func(t *maintain.Task) {
		if d.maint.Push(t) {
			n++
		}
	}
	gen := d.Pool.GenFn()
	for _, sv := range pq.selViews {
		if !d.backoff.allowed(sv.vc.id) {
			continue
		}
		push(&maintain.Task{
			Key:      fmt.Sprintf("mat:%s:%s@%d", sv.vc.id, sv.attr, gen(sv.vc.id)),
			Kind:     maintain.KindMaterialize,
			Priority: sv.value,
			Payload:  &matViewTask{sv: sv, captured: captured[sv.vc.node], baseCounts: pq.baseCounts},
		})
	}
	for _, fc := range pq.selFrags {
		if !d.backoff.allowed(fc.viewID) {
			continue
		}
		kind, prefix := maintain.KindSplit, "split"
		var rows *relation.Table
		if fc.fromGap {
			// Gap recoveries are materializations of fresh ranges, not
			// rewrites of existing fragments: they carry their captured
			// rows and rank in the materialize band.
			kind, prefix = maintain.KindMaterialize, "frag"
			rows = captured[fc.gapNode]
		}
		push(&maintain.Task{
			Key:      fmt.Sprintf("%s:%s:%s:%s@%d", prefix, fc.viewID, fc.attr, fc.iv, gen(fc.viewID)),
			Kind:     kind,
			Priority: fc.value,
			Payload:  &matFragTask{fc: fc, captured: rows, baseCounts: pq.baseCounts},
		})
	}
	if d.Cfg.MergeFragments && pq.bestRW != nil && pq.bestRW.PartAttr != "" {
		push(&maintain.Task{
			Key:     fmt.Sprintf("merge:%s:%s@%d", pq.bestRW.ViewID, pq.bestRW.PartAttr, gen(pq.bestRW.ViewID)),
			Kind:    maintain.KindMerge,
			Payload: &mergeTask{rw: pq.bestRW},
		})
	}
	var sweep sweepTask
	if d.Cfg.ExecuteRows {
		for _, vc := range pq.vcands {
			if tbl := captured[vc.node]; tbl != nil {
				sweep.measure = append(sweep.measure, measuredSize{id: vc.id, bytes: tbl.Bytes()})
			}
		}
	}
	sweep.evict = pq.evict
	if len(sweep.measure) > 0 || len(sweep.evict) > 0 {
		push(&maintain.Task{Kind: maintain.KindSweep, Payload: &sweep})
	}
	return n
}

// parkRemat holds a quarantined file's re-materialization until the
// query that quarantined it settles (releaseRemat). Enqueued at once, a
// worker could restore the file before the query's retry re-plans, and
// the retry would pick the file again and fault on it again, until the
// retry budget ran out. No-op without a background pool.
func (d *DeepSea) parkRemat(p *rematTask) {
	if d.maint == nil {
		return
	}
	d.quarMu.Lock()
	if d.parkedRemat == nil {
		d.parkedRemat = make(map[string]*rematTask)
	}
	d.parkedRemat[p.path] = p
	d.quarMu.Unlock()
}

// releaseRemat enqueues the parked re-materializations of the given
// quarantined paths.
func (d *DeepSea) releaseRemat(paths []string) {
	if d.maint == nil || len(paths) == 0 {
		return
	}
	var tasks []*rematTask
	d.quarMu.Lock()
	for _, path := range paths {
		if p, ok := d.parkedRemat[path]; ok {
			delete(d.parkedRemat, path)
			tasks = append(tasks, p)
		}
	}
	d.quarMu.Unlock()
	for _, p := range tasks {
		d.enqueueRemat(p)
	}
}

// enqueueRemat queues a speculative re-materialization of a quarantined
// file. No-op without a background pool (inline mode keeps the
// historical behaviour: the range is re-derived by a future query).
func (d *DeepSea) enqueueRemat(p *rematTask) {
	if d.maint == nil {
		return
	}
	d.maint.Push(&maintain.Task{
		Key:     fmt.Sprintf("remat:%s@%d", p.path, d.Pool.Generation(p.viewID)),
		Kind:    maintain.KindRematerialize,
		Payload: p,
	})
}

// applyMaintBatch is the worker pool's executor: it commits one drain
// cycle. All pool mutations of the batch happen under a single
// acquisition of the union of the batch's view stripes, and every
// journal record the cycle emits is group-appended in one store call.
// maintCommitMu serializes cycles — the journal group buffer is global,
// so concurrent committers would interleave their records.
func (d *DeepSea) applyMaintBatch(batch []*maintain.Task) {
	d.maintCommitMu.Lock()
	defer d.maintCommitMu.Unlock()

	seen := make(map[string]bool)
	var ids []string
	for _, t := range batch {
		for _, id := range maintTaskViews(t) {
			if id == "" || seen[id] {
				continue
			}
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)

	held := d.views.lockViews(ids)
	if d.OnMaintain != nil {
		d.OnMaintain(ids, true)
	}
	d.beginJournalGroup()
	var matCost engine.Cost
	for _, t := range batch {
		c, err := d.applyMaintTask(t)
		matCost.Add(c)
		t.Err = err
	}
	d.Pool.GCViews(ids...)
	if matCost.Seconds > 0 {
		// Charge the cycle's materialization work to the clock while the
		// stripes are held, exactly where the inline path advances it.
		d.Eng.Advance(matCost.Seconds)
	}
	// Flush the group while the stripes are still held: Snapshot
	// quiesces under planMu + every stripe shared and then truncates the
	// journal, so a record flushed after the release could land after a
	// snapshot that already covers its state and replay twice.
	d.endJournalGroup()
	if d.OnMaintain != nil {
		d.OnMaintain(ids, false)
	}
	d.views.unlockViews(held)
}

// applyMaintTask applies one task under the drain cycle's stripes. A
// stale task — its view or partition left the pool since enqueue — is
// skipped silently; injected faults feed the owning view's backoff and
// mark the task failed without affecting any query.
func (d *DeepSea) applyMaintTask(t *maintain.Task) (engine.Cost, error) {
	switch p := t.Payload.(type) {
	case *matViewTask:
		return d.applyMatView(p)
	case *matFragTask:
		return d.applyMatFrag(p)
	case *mergeTask:
		cost, _, err := d.maybeMergeFragments(p.rw)
		if err != nil {
			if f, ok := faults.AsFault(err); ok {
				d.backoff.noteFailure(p.rw.ViewID, f.Permanent)
			}
			return cost, err
		}
		return cost, nil
	case *sweepTask:
		for _, m := range p.measure {
			vs := d.Stats.View(m.id)
			if !vs.Measured {
				vs.Size = m.bytes
				d.journalVStat(vs)
			}
		}
		for _, item := range p.evict {
			d.evict(item)
		}
		return engine.Cost{}, nil
	case *rematTask:
		return d.applyRemat(p)
	case *refreshTask:
		// The drain cycle already holds the view's stripe (maintTaskViews
		// listed it); a still-stale outcome re-enqueued a retry inside
		// applyRefreshLocked.
		cost, _ := d.applyRefreshLocked(p.viewID)
		return cost, nil
	}
	return engine.Cost{}, fmt.Errorf("core: unknown maintenance payload %T", t.Payload)
}

func (d *DeepSea) applyMatView(p *matViewTask) (engine.Cost, error) {
	id := p.sv.vc.id
	if !d.backoff.allowed(id) {
		return engine.Cost{}, nil
	}
	cost, created, err := d.materializeView(p.sv, p.captured, false, p.baseCounts)
	if err != nil {
		if f, ok := faults.AsFault(err); ok {
			d.backoff.noteFailure(id, f.Permanent)
		}
		return cost, err
	}
	if created {
		d.backoff.noteSuccess(id)
	}
	return cost, nil
}

func (d *DeepSea) applyMatFrag(p *matFragTask) (engine.Cost, error) {
	fc := p.fc
	if !d.backoff.allowed(fc.viewID) {
		return engine.Cost{}, nil
	}
	// Stale guard: unlike the inline path (which materializes views
	// before fragments within one locked section), a background fragment
	// task can outlive its view or partition.
	pv := d.Pool.View(fc.viewID)
	if pv == nil || pv.Parts[fc.attr] == nil {
		return engine.Cost{}, nil
	}
	var captured map[query.Node]*relation.Table
	if fc.fromGap && p.captured != nil {
		captured = map[query.Node]*relation.Table{fc.gapNode: p.captured}
	}
	cost, created, err := d.materializeFrag(fc, captured, p.baseCounts)
	if err != nil {
		if f, ok := faults.AsFault(err); ok {
			d.backoff.noteFailure(fc.viewID, f.Permanent)
		}
		return cost, err
	}
	if len(created) > 0 {
		d.backoff.noteSuccess(fc.viewID)
	}
	return cost, nil
}

// applyRemat re-materializes a quarantined file from the rows captured
// at quarantine time. Transient failures re-enqueue while the view's
// backoff allows; a blacklisted view drops the task.
func (d *DeepSea) applyRemat(p *rematTask) (engine.Cost, error) {
	id := p.viewID
	if !d.backoff.allowed(id) {
		return engine.Cost{}, nil
	}
	// Ingest guard: the quarantined rows predate any append that dropped
	// the view; healing them back would resurrect pre-append content
	// with no refresh metadata. Stale views skip too — the pending
	// refresh (or drop) supersedes the heal.
	if d.ingestDropped(id) || d.staleView(id) {
		return engine.Cost{}, nil
	}
	// Stale guard: skip if the lost range was re-covered meanwhile (a
	// later query re-materialized it, or a retry already applied).
	if pv := d.Pool.View(id); pv != nil {
		if p.isView && pv.Path != "" {
			return engine.Cost{}, nil
		}
		if !p.isView {
			if part := pv.Parts[p.attr]; part != nil {
				if part.Covers(p.iv) {
					return engine.Cost{}, nil
				}
			}
		}
	}
	fail := func(err error) (engine.Cost, error) {
		f, ok := faults.AsFault(err)
		if ok {
			d.backoff.noteFailure(id, f.Permanent)
			if d.backoff.allowed(id) {
				d.enqueueRemat(p)
			}
		}
		return engine.Cost{}, fmt.Errorf("core: rematerialize %s: %w", shortID(id), err)
	}
	// One Materialize-site injection decision, like any materialization.
	if err := d.faults.Check(faults.Materialize, id); err != nil {
		return fail(err)
	}
	var cost engine.Cost
	var err error
	bytes := p.size
	if p.rows != nil {
		cost, err = d.Eng.WriteMaterialized(p.path, p.rows)
		bytes = p.rows.Bytes()
	} else {
		cost, err = d.Eng.WriteMaterializedSize(p.path, p.size)
	}
	if err != nil {
		return fail(err)
	}
	d.Pool.Ensure(id, p.schema)
	if p.isView {
		d.Pool.SetViewFile(id, p.path, bytes)
	} else {
		d.Pool.EnsurePartition(id, p.attr, p.dom, p.overlapping)
		d.Pool.AddFragment(id, p.attr, partition.Fragment{Iv: p.iv, Path: p.path, Size: bytes})
	}
	d.backoff.noteSuccess(id)
	return cost, nil
}

// beginJournalGroup starts buffering journal records instead of
// appending them one by one; endJournalGroup flushes the buffer as one
// AppendGroup call. Concurrent appends from finishing queries (clock
// advances) buffer into the open group too — their durability is
// delayed to the group flush, which is safe: the flush completes before
// the cycle's stripes release, and Snapshot cannot run while they are
// held.
func (d *DeepSea) beginJournalGroup() {
	if d.store == nil {
		return
	}
	d.groupMu.Lock()
	d.grouping = true
	d.groupMu.Unlock()
}

func (d *DeepSea) endJournalGroup() {
	if d.store == nil {
		return
	}
	d.groupMu.Lock()
	buf := d.groupBuf
	d.groupBuf = nil
	d.grouping = false
	d.groupMu.Unlock()
	if len(buf) > 0 {
		_ = d.store.AppendGroup(buf)
	}
}

// DrainMaintenance blocks until every queued background maintenance
// task (including tasks re-enqueued while draining) has been applied.
// No-op in inline mode. Returns ctx.Err() if the context expires first.
func (d *DeepSea) DrainMaintenance(ctx context.Context) error {
	if d.maint == nil {
		return nil
	}
	return d.maint.Drain(ctx)
}

// CloseMaintenance stops the background workers after the queue
// empties. Idempotent; no-op in inline mode. Call before Snapshot on
// shutdown so the checkpoint includes every applied task.
func (d *DeepSea) CloseMaintenance() {
	if d.maint != nil {
		d.maint.Close()
	}
}

// MaintStats returns the background pool's counter snapshot (zero
// value in inline mode).
func (d *DeepSea) MaintStats() maintain.Stats {
	if d.maint == nil {
		return maintain.Stats{}
	}
	return d.maint.Stats()
}

// MaintSaturated reports whether the background queue is at capacity —
// the degraded signal for health surfaces. Always false in inline mode.
func (d *DeepSea) MaintSaturated() bool {
	return d.maint != nil && d.maint.Saturated()
}
