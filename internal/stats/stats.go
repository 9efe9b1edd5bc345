// Package stats implements DeepSea's cost-benefit bookkeeping (Section
// 7.1): per-view and per-fragment statistics, the decay function DEC, the
// accumulated benefit B, the value ratio Φ used for selection, and the
// probabilistic fragment-benefit model that smooths hit counts with a
// maximum-likelihood normal fit to exploit fragment correlation.
package stats

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"deepsea/internal/datastore"
	"deepsea/internal/interval"
)

// journalRef is the registry's shared journal hook, threaded into every
// record it creates so the hot-path mutators (RecordUse, RecordHit,
// RefineCand, Drop, PruneExpired) can emit without a registry lookup.
// All records share one ref, so attaching a journal after recovery
// reaches records created before the attachment. A nil ref (records
// built outside a registry) or nil fn (no datastore) emits nothing.
type journalRef struct {
	fn func(datastore.Record)
}

func (j *journalRef) emit(rec datastore.Record) {
	if j == nil || j.fn == nil {
		return
	}
	j.fn(rec)
}

// Counters is one epoch-published snapshot of the registry's object
// counts. Epoch increments on every change, so two reads with equal
// epochs saw the identical state. Health surfaces read one snapshot
// atomically instead of summing per-shard counts that can shift
// mid-walk.
type Counters struct {
	// Views, Partitions and Fragments count tracked statistics records
	// (candidates and pool members alike).
	Views      int
	Partitions int
	Fragments  int
	// Epoch is the number of counter mutations published so far.
	Epoch uint64
}

// countersRef is the registry's shared counter cell, threaded into
// every PartitionStat it creates (like journalRef) so fragment
// creation and deletion deep inside a record can bump the published
// counts without a registry lookup. Writers serialize on mu and
// publish a fresh immutable snapshot; readers load it lock-free.
type countersRef struct {
	mu   sync.Mutex
	snap atomic.Pointer[Counters]
}

func newCountersRef() *countersRef {
	c := &countersRef{}
	c.snap.Store(&Counters{})
	return c
}

// add publishes a new snapshot with the deltas applied. Nil-safe, like
// journalRef.emit, for records built outside a registry.
func (c *countersRef) add(views, parts, frags int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	cur := c.snap.Load()
	c.snap.Store(&Counters{
		Views:      cur.Views + views,
		Partitions: cur.Partitions + parts,
		Fragments:  cur.Fragments + frags,
		Epoch:      cur.Epoch + 1,
	})
	c.mu.Unlock()
}

// Decay is the paper's DEC(tnow, t): zero once a benefit is older than
// TMax, otherwise proportional weighting t/tnow, so that older savings
// count less as the clock advances.
type Decay struct {
	// TMax is the benefit timeout in simulated seconds. Zero means no
	// timeout (only the proportional decay applies).
	TMax float64
}

// Weight returns DEC(tnow, t). tnow must be >= t and positive; the engine
// clock starts at 1, so this always holds.
func (d Decay) Weight(tnow, t float64) float64 {
	if d.TMax > 0 && tnow-t > d.TMax {
		return 0
	}
	if tnow <= 0 {
		return 0
	}
	w := t / tnow
	if w < 0 {
		return 0
	}
	if w > 1 {
		return 1
	}
	return w
}

// Use records that a view was (or could have been) used to answer a
// query at simulated time T, saving Saving simulated seconds versus the
// best plan not using the view.
type Use struct {
	T      float64
	Saving float64
}

// ViewStat holds the statistics Σ(V) = (S, COST, T, B) for one view,
// whether it is materialized in the pool or only a candidate.
type ViewStat struct {
	// ID is the view's signature key.
	ID string
	// Size is S(V) in bytes; estimated until Measured.
	Size int64
	// Cost is COST(V), the creation cost in simulated seconds; estimated
	// until Measured.
	Cost float64
	// Measured records whether Size and Cost hold actual values from an
	// executed materialization rather than estimates.
	Measured bool
	// Uses is the benefit history (the paper's T and B lists). Append
	// via RecordUse only: timestamps must be non-decreasing and the
	// prefix sums below must stay in sync.
	Uses []Use

	// cumSavingT[i] = Σ_{j<=i} Uses[j].Saving · Uses[j].T. Because the
	// decay is DEC(tnow,t) = t/tnow inside the timeout window, the
	// benefit is an O(log n) suffix-sum query instead of an O(n) scan.
	cumSavingT []float64

	journal *journalRef
}

// RecordUse appends a (timestamp, saving) pair. Timestamps must be
// non-decreasing (the simulated clock only moves forward).
func (v *ViewStat) RecordUse(t, saving float64) {
	v.Uses = append(v.Uses, Use{T: t, Saving: saving})
	prev := 0.0
	if n := len(v.cumSavingT); n > 0 {
		prev = v.cumSavingT[n-1]
	}
	v.cumSavingT = append(v.cumSavingT, prev+saving*t)
	v.journal.emit(datastore.Record{Op: "use", View: v.ID, T: t, Saving: saving})
}

// Benefit returns B(V, tnow) = Σ saving · DEC(tnow, t).
func (v *ViewStat) Benefit(tnow float64, d Decay) float64 {
	if len(v.Uses) == 0 || tnow <= 0 {
		return 0
	}
	// First use index still inside the timeout window.
	k := 0
	if d.TMax > 0 {
		k = sort.Search(len(v.Uses), func(i int) bool {
			return tnow-v.Uses[i].T <= d.TMax
		})
	}
	if k >= len(v.Uses) {
		return 0
	}
	sum := v.cumSavingT[len(v.cumSavingT)-1]
	if k > 0 {
		sum -= v.cumSavingT[k-1]
	}
	return sum / tnow
}

// Value returns Φ(V, tnow) = COST(V) · B(V, tnow) / S(V).
func (v *ViewStat) Value(tnow float64, d Decay) float64 {
	if v.Size <= 0 {
		return 0
	}
	return v.Cost * v.Benefit(tnow, d) / float64(v.Size)
}

// FragStat holds per-fragment statistics: the fragment's interval, its
// size, and the timestamps of its hits. Benefits are derived from the
// owning view's creation cost (Section 7.1: the cost of recreating a
// fragment is the cost of recomputing and partitioning the view).
type FragStat struct {
	Iv interval.Interval
	// Size is S(I) in bytes; estimated until Measured.
	Size int64
	// Measured mirrors ViewStat.Measured.
	Measured bool
	// Hits are the retained hit timestamps, oldest first. Append via
	// RecordHit only: timestamps must be non-decreasing so the prefix
	// sums stay in sync. PartitionStat.PruneExpired may drop an expired
	// prefix (see compact), so len(Hits) is not the number of hits ever
	// recorded — use HitCount for that. The most recent hit is always
	// retained.
	Hits []float64

	// cumT[i] = base + Σ_{j<=i} Hits[j], the prefix sum over the whole
	// history; see ViewStat.cumSavingT. Compaction drops a prefix of
	// cumT without rebasing it, so every suffix sum stays the same float
	// it was before.
	cumT []float64
	// dropped counts the expired hits compaction removed from the front
	// of Hits; base is the cumT value of the last dropped hit (the sum
	// of every dropped timestamp).
	dropped int
	base    float64

	// view and attr identify the owning partition for journaling; set by
	// PartitionStat.Frag (empty for free-standing records, which then
	// journal nothing for lack of an identity).
	view, attr string
	journal    *journalRef
}

// RecordHit appends a hit timestamp. Timestamps must be non-decreasing.
func (f *FragStat) RecordHit(t float64) {
	f.Hits = append(f.Hits, t)
	prev := f.base
	if n := len(f.cumT); n > 0 {
		prev = f.cumT[n-1]
	}
	f.cumT = append(f.cumT, prev+t)
	f.journal.emit(datastore.Record{Op: "hit", View: f.view, Attr: f.attr, Iv: f.Iv, T: t})
}

// HitCount returns the number of hits ever recorded, including those
// compaction dropped.
func (f *FragStat) HitCount() int { return f.dropped + len(f.Hits) }

// DecayedHits returns H(I) = Σ DEC(tnow, t) over the hit timestamps.
func (f *FragStat) DecayedHits(tnow float64, d Decay) float64 {
	if len(f.Hits) == 0 || tnow <= 0 {
		return 0
	}
	k := 0
	if d.TMax > 0 {
		k = sort.SearchFloat64s(f.Hits, tnow-d.TMax)
	}
	if k >= len(f.Hits) {
		return 0
	}
	sum := f.cumT[len(f.cumT)-1]
	if k > 0 {
		sum -= f.cumT[k-1]
	} else if f.dropped > 0 {
		// Every dropped hit has expired (compact only drops expired
		// hits and the clock never goes backwards), so the uncompacted
		// search would have stopped exactly at the cut.
		sum -= f.base
	}
	return sum / tnow
}

// compact drops the hits that expired by tnow once they make up at
// least half of Hits, always keeping the most recent hit. The result is
// exact for every later tnow: an expired hit stays expired because the
// engine clock never goes backwards, and cumT is cut, not rebased, so
// DecayedHits returns the same float as on the uncompacted record.
func (f *FragStat) compact(tnow float64, d Decay) {
	n := len(f.Hits)
	k := min(sort.SearchFloat64s(f.Hits, tnow-d.TMax), n-1)
	if k <= 0 || 2*k < n {
		return
	}
	f.base = f.cumT[k-1]
	f.dropped += k
	f.Hits = slices.Clone(f.Hits[k:])
	f.cumT = slices.Clone(f.cumT[k:])
}

// Benefit returns B(I, tnow) = Σ (S(I)/S(V)) · COST(V) · DEC(tnow, t),
// where viewSize and viewCost describe the owning view.
func (f *FragStat) Benefit(tnow float64, d Decay, viewSize int64, viewCost float64) float64 {
	if viewSize <= 0 {
		return 0
	}
	perHit := float64(f.Size) / float64(viewSize) * viewCost
	return perHit * f.DecayedHits(tnow, d)
}

// Value returns Φ(I, tnow) = COST(V) · B(I, tnow) / S(I).
func (f *FragStat) Value(tnow float64, d Decay, viewSize int64, viewCost float64) float64 {
	if f.Size <= 0 {
		return 0
	}
	return viewCost * f.Benefit(tnow, d, viewSize, viewCost) / float64(f.Size)
}

// BenefitFromHits computes a fragment benefit from an externally supplied
// (possibly adjusted) hit count instead of the raw decayed hits.
func (f *FragStat) BenefitFromHits(hits float64, viewSize int64, viewCost float64) float64 {
	if viewSize <= 0 {
		return 0
	}
	return float64(f.Size) / float64(viewSize) * viewCost * hits
}

// ValueFromHits computes Φ(I) from an adjusted hit count.
func (f *FragStat) ValueFromHits(hits float64, viewSize int64, viewCost float64) float64 {
	if f.Size <= 0 {
		return 0
	}
	return viewCost * f.BenefitFromHits(hits, viewSize, viewCost) / float64(f.Size)
}

// PartitionStat tracks the fragment statistics of one (view, attribute)
// partitioning — the paper's PSTAT(V, A). Fragments are tracked whether
// or not they are currently materialized.
type PartitionStat struct {
	View string
	Attr string
	Dom  interval.Interval

	// Cand is the current *candidate partitioning* for a view that is
	// not materialized yet (Definition 7, the "potential fragments in
	// PSTAT(V,A)"): a disjoint covering of the domain that is refined by
	// splitting at the end points of incoming selection ranges. When the
	// view is materialized, Cand becomes its initial partitioning.
	Cand interval.Set

	frags map[interval.Interval]*FragStat
	// order holds the records of frags sorted by (Lo, Hi), maintained
	// by Frag, Drop and PruneExpired so readers need no per-call sort.
	order    []*FragStat
	journal  *journalRef
	counters *countersRef

	// fitCuts and fitParts are FitNormal's scratch buffers, reused so a
	// steady-state fit allocates nothing. Fits run only under the
	// planning lock, so one set per partition suffices.
	fitCuts  []int64
	fitParts []fitPart
}

// RefineCand splits the candidate partitioning at the end points of the
// query interval (clamped to the domain) and returns the newly created
// intervals. On first use the partitioning is initialised with the whole
// domain.
func (p *PartitionStat) RefineCand(q interval.Interval) []interval.Interval {
	qc, ok := q.Intersect(p.Dom)
	if !ok {
		return nil
	}
	init := len(p.Cand) == 0
	if init {
		p.Cand = interval.Set{p.Dom}
	}
	var next interval.Set
	var created []interval.Interval
	for _, iv := range p.Cand {
		if !iv.Overlaps(qc) {
			next = append(next, iv)
			continue
		}
		pieces := iv.SplitAt(qc.Lo, qc.Hi+1)
		next = append(next, pieces...)
		if len(pieces) > 1 {
			created = append(created, pieces...)
		}
	}
	next.Sort()
	p.Cand = next
	// Journal only refinements that changed the partitioning: replaying
	// the state-changing subsequence reproduces Cand exactly, because a
	// no-op refinement stays a no-op whenever it is re-applied.
	if init || len(created) > 0 {
		p.journal.emit(datastore.Record{Op: "refine", View: p.View, Attr: p.Attr, Iv: q})
	}
	return created
}

// NewPartitionStat returns an empty partition statistic over the domain.
func NewPartitionStat(view, attr string, dom interval.Interval) *PartitionStat {
	return &PartitionStat{
		View: view, Attr: attr, Dom: dom,
		frags: make(map[interval.Interval]*FragStat),
	}
}

// Frag returns the statistics for the fragment with the given interval,
// creating an empty record on first use.
func (p *PartitionStat) Frag(iv interval.Interval) *FragStat {
	f, ok := p.frags[iv]
	if !ok {
		f = &FragStat{Iv: iv, view: p.View, attr: p.Attr, journal: p.journal}
		p.frags[iv] = f
		i, _ := slices.BinarySearchFunc(p.order, iv, cmpFragIv)
		p.order = slices.Insert(p.order, i, f)
		p.counters.add(0, 0, 1)
	}
	return f
}

// cmpFragIv orders fragment records by (Lo, Hi).
func cmpFragIv(f *FragStat, iv interval.Interval) int {
	if c := cmp.Compare(f.Iv.Lo, iv.Lo); c != 0 {
		return c
	}
	return cmp.Compare(f.Iv.Hi, iv.Hi)
}

// Lookup returns the fragment statistics if present.
func (p *PartitionStat) Lookup(iv interval.Interval) (*FragStat, bool) {
	f, ok := p.frags[iv]
	return f, ok
}

// Drop removes a fragment's statistics (used when a fragment candidate is
// superseded by a refinement).
func (p *PartitionStat) Drop(iv interval.Interval) {
	if _, ok := p.frags[iv]; ok {
		delete(p.frags, iv)
		i, _ := slices.BinarySearchFunc(p.order, iv, cmpFragIv)
		p.order = slices.Delete(p.order, i, i+1)
		p.counters.add(0, 0, -1)
		p.journal.emit(datastore.Record{Op: "frag_drop", View: p.View, Attr: p.Attr, Iv: iv})
	}
}

// Fragments returns all tracked fragment statistics sorted by interval.
func (p *PartitionStat) Fragments() []*FragStat { return slices.Clone(p.order) }

// Ascend calls fn on every tracked fragment in (Lo, Hi) order until fn
// returns false. fn must not add or drop fragments of p.
func (p *PartitionStat) Ascend(fn func(*FragStat) bool) {
	for _, f := range p.order {
		if !fn(f) {
			return
		}
	}
}

// PruneExpired drops tracked fragments whose hit mass has fully decayed
// (every hit older than the timeout) and that the keep predicate does not
// protect (materialized fragments are kept regardless). Without pruning,
// candidate statistics grow linearly with the workload, and so does the
// cost of every MLE fit over them.
//
// With compact set it also drops the expired hit prefix of every
// surviving fragment (see FragStat.compact), so hit history is bounded
// by the decay window rather than by the workload's length. Callers
// that read the full hit history must pass compact = false.
func (p *PartitionStat) PruneExpired(tnow float64, d Decay, keep func(interval.Interval) bool, compact bool) int {
	if d.TMax <= 0 {
		return 0
	}
	n := 0
	live := p.order[:0]
	for _, f := range p.order {
		if (keep != nil && keep(f.Iv)) || f.DecayedHits(tnow, d) > 0 {
			if compact {
				f.compact(tnow, d)
			}
			live = append(live, f)
			continue
		}
		delete(p.frags, f.Iv)
		p.journal.emit(datastore.Record{Op: "frag_drop", View: p.View, Attr: p.Attr, Iv: f.Iv})
		n++
	}
	clear(p.order[len(live):])
	p.order = live
	if n > 0 {
		p.counters.add(0, 0, -n)
	}
	return n
}

// TotalHits returns Htotal = Σ_I H(I), the decayed hit mass over all
// tracked fragments.
func (p *PartitionStat) TotalHits(tnow float64, d Decay) float64 {
	var h float64
	for _, f := range p.order {
		h += f.DecayedHits(tnow, d)
	}
	return h
}

// defaultStatsShards is the registry shard count when the caller does
// not override it.
const defaultStatsShards = 16

// regShard holds one shard of the registry: the view records and
// partition records of every view id that hashes onto it. Views and
// their partitions are colocated, so per-view work touches one shard.
type regShard struct {
	mu    sync.RWMutex
	views map[string]*ViewStat
	parts map[string]map[string]*PartitionStat // view -> attr -> stat
}

// Registry is the paper's STAT: all view and partition statistics, for
// pool members and candidates alike.
//
// The registry is sharded by view id: each shard's lock guards only its
// own maps, so concurrent planners and maintainers touching different
// views never contend on the registry itself. The returned
// ViewStat/PartitionStat records are not internally locked: a record is
// mutated only by the view manager while it holds the owning view's
// exclusive stripe, or during planning (which holds every stripe
// shared and is itself serialized by the planning lock) — either way
// writers to one record are serialized and its timestamps stay
// non-decreasing. See core's DeepSea for the lock order.
type Registry struct {
	Decay Decay

	shards   []regShard
	journal  *journalRef
	counters *countersRef
}

// NewRegistry returns an empty statistics registry with the default
// shard count.
func NewRegistry(d Decay) *Registry { return NewShardedRegistry(d, 0) }

// NewShardedRegistry returns an empty statistics registry with n shards
// (<= 0 selects the default). The shard count is purely a contention
// knob: behaviour is identical at every setting.
func NewShardedRegistry(d Decay, n int) *Registry {
	if n <= 0 {
		n = defaultStatsShards
	}
	r := &Registry{Decay: d, shards: make([]regShard, n), journal: &journalRef{}, counters: newCountersRef()}
	for i := range r.shards {
		r.shards[i].views = make(map[string]*ViewStat)
		r.shards[i].parts = make(map[string]map[string]*PartitionStat)
	}
	return r
}

// SetJournal attaches a mutation journal to the registry; nil detaches
// it. The shared ref reaches every record the registry ever created, so
// attaching after a recovery replay covers the restored records too. Set
// while no statistics are being written (initialisation or recovery).
func (r *Registry) SetJournal(fn func(datastore.Record)) { r.journal.fn = fn }

// shard maps a view id to its shard.
func (r *Registry) shard(view string) *regShard {
	h := fnv.New32a()
	h.Write([]byte(view))
	return &r.shards[h.Sum32()%uint32(len(r.shards))]
}

// View returns the statistics record for a view id, creating it on first
// use.
func (r *Registry) View(id string) *ViewStat {
	s := r.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.views[id]
	if !ok {
		v = &ViewStat{ID: id, journal: r.journal}
		s.views[id] = v
		r.counters.add(1, 0, 0)
	}
	return v
}

// LookupView returns a view's statistics if tracked.
func (r *Registry) LookupView(id string) (*ViewStat, bool) {
	s := r.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.views[id]
	return v, ok
}

// Views returns all tracked views sorted by id.
func (r *Registry) Views() []*ViewStat {
	var out []*ViewStat
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, v := range s.views {
			out = append(out, v)
		}
		s.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// NumViews returns the number of tracked views across all shards.
func (r *Registry) NumViews() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		n += len(s.views)
		s.mu.RUnlock()
	}
	return n
}

// NumShards returns the registry's shard count (observability).
func (r *Registry) NumShards() int { return len(r.shards) }

// Counters returns the current epoch-published count snapshot: one
// lock-free load, internally consistent — views, partitions and
// fragments all describe the same epoch, unlike a NumViews-style walk
// that sums shards while writers move between them.
func (r *Registry) Counters() Counters { return *r.counters.snap.Load() }

// Partition returns the partition statistics for (view, attr), creating
// an empty record over dom on first use.
func (r *Registry) Partition(view, attr string, dom interval.Interval) *PartitionStat {
	s := r.shard(view)
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.parts[view]
	if !ok {
		m = make(map[string]*PartitionStat)
		s.parts[view] = m
	}
	p, ok := m[attr]
	if !ok {
		p = NewPartitionStat(view, attr, dom)
		p.journal = r.journal
		p.counters = r.counters
		m[attr] = p
		r.counters.add(0, 1, 0)
		// Journal the creation so replay rebuilds the record — with its
		// domain — before any hit/refine/drop record that references it.
		r.journal.emit(datastore.Record{Op: "part", View: view, Attr: attr, Dom: dom})
	}
	if p.Dom != dom {
		// The domain of an attribute is fixed by the schema; a mismatch
		// is a wiring bug.
		panic(fmt.Sprintf("stats: partition %s.%s domain changed from %s to %s",
			view, attr, p.Dom, dom))
	}
	return p
}

// LookupPartition returns the partition statistics if tracked.
func (r *Registry) LookupPartition(view, attr string) (*PartitionStat, bool) {
	s := r.shard(view)
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.parts[view]
	if !ok {
		return nil, false
	}
	p, ok := m[attr]
	return p, ok
}

// Partitions returns all partition statistics of a view sorted by
// attribute.
func (r *Registry) Partitions(view string) []*PartitionStat {
	s := r.shard(view)
	s.mu.RLock()
	m := s.parts[view]
	out := make([]*PartitionStat, 0, len(m))
	for _, p := range m {
		out = append(out, p)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Attr < out[j].Attr })
	return out
}
