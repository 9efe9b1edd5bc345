package core

import (
	"deepsea/internal/interval"
	"deepsea/internal/partition"
	"deepsea/internal/pool"
	"deepsea/internal/stats"
)

// selectedView is a view candidate chosen for materialization, possibly
// only partially: when the pool cannot hold the whole view, only the
// selected initial fragments are written (Section 7.3 treats candidate
// fragments individually, so a 7 GB pool can hold the hot fragments of a
// 19 GB view).
type selectedView struct {
	vc viewCandidate
	// attr is the partition attribute ("" = store unpartitioned).
	attr string
	dom  interval.Interval
	// pieces lists the selected initial fragments; nil means all.
	pieces []interval.Interval
	// value is the selection's Φ ranking of the admitted candidate (the
	// max over its admitted pieces) — background maintenance orders its
	// queue by it.
	value float64
}

// selectConfiguration implements Sections 7.2 and 7.3: filter view and
// fragment candidates by cost <= benefit, assemble ALLCAND (filtered
// candidates plus every fragment and unpartitioned view in the pool),
// rank by the configured value measure, and greedily pick the next
// configuration. Adaptive-mode view candidates enter ALLCAND as their
// individual initial fragments ("candidate views and fragments are
// treated alike"); non-partitioned and equi-depth views enter whole. It
// returns the views/fragments to materialize and the pool items to
// evict.
func (d *DeepSea) selectConfiguration(vcands []viewCandidate, fcands []fragCandidate) ([]selectedView, []fragCandidate, []pool.Candidate) {
	r := d.rankCandidates(vcands, fcands)
	keep, reject := pool.SelectGreedy(r.items, d.Cfg.Smax)
	return r.choose(keep, reject)
}

// candKey identifies a selection candidate like pool.Candidate.Key, as
// a comparable value that needs no string building.
type candKey struct {
	kind       pool.CandidateKind
	view, attr string
	iv         interval.Interval
}

func keyOf(c pool.Candidate) candKey { return candKey{c.Kind, c.ViewID, c.Attr, c.Iv} }

// newPiece is an initial fragment of a view candidate.
type newPiece struct {
	vc   viewCandidate
	attr string
	dom  interval.Interval
	iv   interval.Interval
}

// ranking is one selection round's ALLCAND and, for each candidate not
// yet in the pool, what selecting it materializes.
type ranking struct {
	items  []pool.Candidate
	views  map[candKey]selectedView  // whole-view candidates
	pieces map[candKey]newPiece      // initial-fragment candidates
	frags  map[candKey]fragCandidate // refinement candidates
}

// rankCandidates filters the candidates (Section 7.2) and values every
// element of ALLCAND. Each partition's statistics are looked up once
// and its fragments valued through them; the values, and the records
// valuation creates, are those of looking each fragment up on its own.
func (d *DeepSea) rankCandidates(vcands []viewCandidate, fcands []fragCandidate) *ranking {
	now := d.Eng.Now()
	decay := d.Stats.Decay

	// Section 7.2 filter: benefit must offset the marginal creation cost
	// (the write — the rows come for free as a by-product of execution).
	var vsel []viewCandidate
	for _, vc := range vcands {
		vs := d.Stats.View(vc.id)
		if vc.matCost <= d.viewBenefit(vs, now, decay) {
			vsel = append(vsel, vc)
		}
	}
	type selFrag struct {
		fc fragCandidate
		ps partStats
	}
	var psel []selFrag
	for _, fc := range fcands {
		ps := d.lookupPart(fc.viewID, fc.attr)
		if fc.createCost <= d.fragBenefit(&ps, fc.iv, now, decay) {
			psel = append(psel, selFrag{fc, ps})
		}
	}

	// ALLCAND: filtered candidates + pool fragments + pool whole views.
	r := &ranking{
		views:  make(map[candKey]selectedView),
		pieces: make(map[candKey]newPiece),
		frags:  make(map[candKey]fragCandidate),
	}
	for i := range psel {
		fc := psel[i].fc
		c := pool.Candidate{
			Kind:   pool.Frag,
			ViewID: fc.viewID,
			Attr:   fc.attr,
			Iv:     fc.iv,
			Size:   fc.estSize,
			Value:  d.fragValue(&psel[i].ps, fc.iv, now, decay),
		}
		r.items = append(r.items, c)
		r.frags[keyOf(c)] = fc
	}
	for _, vc := range vsel {
		vs := d.Stats.View(vc.id)
		proposed := false
		if d.Cfg.adaptive() {
			// Propose initial fragments for EVERY partition attribute
			// with selection evidence — the configuration's P(V, A)
			// mapping permits multiple partitions of a view on different
			// attributes (Definition 3).
			for _, pstat := range d.Stats.Partitions(vc.id) {
				if i := vc.schema.ColIndex(pstat.Attr); i < 0 || !vc.schema.Cols[i].Ordered {
					continue
				}
				attr, dom := pstat.Attr, pstat.Dom
				ps := partStats{vs: vs, pstat: pstat}
				pieces := []interval.Interval(pstat.Cand.Clone())
				if len(pieces) == 0 {
					pieces = []interval.Interval{dom}
				}
				// Propose mergeable units at or above the block-size
				// bound, exactly as materialization would coalesce them
				// — otherwise a hot piece narrower than a block could
				// never be admitted and its range would stay a
				// permanent hole.
				pieces = coalesceMin(pieces, func(iv interval.Interval) int64 {
					return uniformSize(vs, dom, iv)
				}, d.Cfg.minFragBytes())
				var existing *partition.Partition
				if pv := d.Pool.View(vc.id); pv != nil {
					existing = pv.Parts[attr]
				}
				proposed = true
				for _, iv := range pieces {
					if existing != nil && existing.Covers(iv) {
						continue // already materialized
					}
					c := pool.Candidate{
						Kind:   pool.Frag,
						ViewID: vc.id,
						Attr:   attr,
						Iv:     iv,
						Size:   uniformSize(vs, dom, iv),
						Value:  d.fragValue(&ps, iv, now, decay),
					}
					k := keyOf(c)
					if _, dup := r.frags[k]; dup {
						continue // a refinement candidate covers this piece
					}
					r.items = append(r.items, c)
					r.pieces[k] = newPiece{vc: vc, attr: attr, dom: dom, iv: iv}
				}
			}
		}
		if proposed {
			continue
		}
		c := pool.Candidate{
			Kind:   pool.WholeView,
			ViewID: vc.id,
			Size:   vc.estBytes,
			Value:  d.viewValue(vs, now, decay),
		}
		r.items = append(r.items, c)
		attr, dom, _ := d.partitionKey(vc)
		r.views[keyOf(c)] = selectedView{vc: vc, attr: attr, dom: dom}
	}
	for _, pv := range d.Pool.Views() {
		if pv.Path != "" {
			r.items = append(r.items, pool.Candidate{
				Kind:   pool.WholeView,
				ViewID: pv.ID,
				Size:   pv.Size,
				Value:  d.viewValue(d.Stats.View(pv.ID), now, decay),
				InPool: true,
			})
		}
		for _, attr := range pv.PartAttrs() {
			ps := d.lookupPart(pv.ID, attr)
			for _, f := range pv.Parts[attr].Fragments() {
				r.items = append(r.items, pool.Candidate{
					Kind:   pool.Frag,
					ViewID: pv.ID,
					Attr:   attr,
					Iv:     f.Iv,
					Size:   f.Size,
					Value:  d.fragValue(&ps, f.Iv, now, decay),
					InPool: true,
				})
			}
		}
	}
	return r
}

// choose turns the greedy's kept and rejected candidates into the
// views and fragments to materialize and the pool items to evict.
// Selected pieces are grouped by (view, attribute): a view may gain
// partitions on several attributes in one round.
func (r *ranking) choose(keep, reject []pool.Candidate) ([]selectedView, []fragCandidate, []pool.Candidate) {
	byView := make(map[viewAttr]*selectedView)
	var order []viewAttr
	var selFrags []fragCandidate
	for _, c := range keep {
		if c.InPool {
			continue
		}
		k := keyOf(c)
		if sv, ok := r.views[k]; ok {
			key := viewAttr{view: sv.vc.id}
			sv.value = c.Value
			if _, seen := byView[key]; !seen {
				byView[key] = &sv
				order = append(order, key)
			}
		}
		if np, ok := r.pieces[k]; ok {
			key := viewAttr{view: np.vc.id, attr: np.attr}
			sv, seen := byView[key]
			if !seen {
				sv = &selectedView{vc: np.vc, attr: np.attr, dom: np.dom}
				byView[key] = sv
				order = append(order, key)
			}
			sv.pieces = append(sv.pieces, np.iv)
			if c.Value > sv.value {
				sv.value = c.Value
			}
		}
		if fc, ok := r.frags[k]; ok {
			fc.value = c.Value
			selFrags = append(selFrags, fc)
		}
	}
	var selViews []selectedView
	for _, key := range order {
		selViews = append(selViews, *byView[key])
	}
	var evict []pool.Candidate
	for _, c := range reject {
		if c.InPool {
			evict = append(evict, c)
		}
	}
	return selViews, selFrags, evict
}

// viewAttr names one (view, attribute) pair; attr is empty for a view
// stored whole.
type viewAttr struct{ view, attr string }

// viewBenefit returns the admission benefit of a view under the
// configured policy.
func (d *DeepSea) viewBenefit(vs *stats.ViewStat, now float64, decay stats.Decay) float64 {
	switch d.Cfg.Selection {
	case SelectNectar:
		if len(vs.Uses) == 0 {
			return 0
		}
		return vs.Uses[len(vs.Uses)-1].Saving
	case SelectNectarPlus:
		var sum float64
		for _, u := range vs.Uses {
			sum += u.Saving
		}
		return sum
	default:
		return vs.Benefit(now, decay)
	}
}

// viewValue returns the ranking value of a view under the configured
// policy.
func (d *DeepSea) viewValue(vs *stats.ViewStat, now float64, decay stats.Decay) float64 {
	switch d.Cfg.Selection {
	case SelectNectar:
		return stats.NectarValue(vs, now)
	case SelectNectarPlus:
		return stats.NectarPlusValue(vs, now)
	default:
		return vs.Value(now, decay)
	}
}

// partStats is one (view, attribute) partition's statistics, looked
// up once so that each of its fragments is valued without registry
// lookups. The zero value (view or partition untracked) values every
// fragment at 0 and creates no record.
type partStats struct {
	vs    *stats.ViewStat
	pstat *stats.PartitionStat
	// model is the partition's MLE fit at the round's timestamp, taken
	// on the first valuation that needs it (fitted), after the records
	// created before it.
	model  stats.NormalModel
	fitted bool
}

// lookupPart resolves a partition's statistics.
func (d *DeepSea) lookupPart(viewID, attr string) partStats {
	vs, ok := d.Stats.LookupView(viewID)
	if !ok {
		return partStats{}
	}
	pstat, ok := d.Stats.LookupPartition(viewID, attr)
	if !ok {
		return partStats{}
	}
	return partStats{vs: vs, pstat: pstat}
}

// frag returns the partition's record for iv, creating it on first use,
// with its size estimate refreshed.
func (ps *partStats) frag(iv interval.Interval) *stats.FragStat {
	f := ps.pstat.Frag(iv)
	refreshFragSize(f, ps.vs, ps.pstat.Dom)
	return f
}

// normal returns the partition's fit (see normalModel).
func (d *DeepSea) normal(ps *partStats, now float64, decay stats.Decay) stats.NormalModel {
	if !ps.fitted {
		ps.model = d.normalModel(ps.pstat, now, decay)
		ps.fitted = true
	}
	return ps.model
}

// fragBenefit returns the admission benefit of the partition's fragment
// iv under the configured policy. For the full DeepSea policy hits are
// smoothed by the partition's MLE normal fit (Section 7.1's
// probabilistic model).
func (d *DeepSea) fragBenefit(ps *partStats, iv interval.Interval, now float64, decay stats.Decay) float64 {
	if ps.pstat == nil {
		return 0
	}
	f := ps.frag(iv)
	vs := ps.vs
	switch d.Cfg.Selection {
	case SelectDeepSea:
		if model := d.normal(ps, now, decay); model.Valid() {
			return f.BenefitFromHits(model.AdjustedHits(iv), vs.Size, vs.Cost)
		}
		return f.Benefit(now, decay, vs.Size, vs.Cost)
	case SelectDeepSeaRawHits:
		return f.Benefit(now, decay, vs.Size, vs.Cost)
	case SelectNectar:
		if f.HitCount() == 0 || vs.Size <= 0 {
			return 0
		}
		return float64(f.Size) / float64(vs.Size) * vs.Cost
	case SelectNectarPlus:
		if vs.Size <= 0 {
			return 0
		}
		return float64(f.Size) / float64(vs.Size) * vs.Cost * float64(f.HitCount())
	default:
		return 0
	}
}

// refreshFragSize re-derives an unmeasured fragment's size estimate from
// the current size of its view vs over the partition domain dom: early
// size estimates can be stale (the view's own size is refined once the
// view is first captured).
func refreshFragSize(f *stats.FragStat, vs *stats.ViewStat, dom interval.Interval) {
	if f.Measured {
		return
	}
	if est := uniformSize(vs, dom, f.Iv); est > 0 {
		f.Size = est
	}
}

// normalModel memoizes FitNormal per partition within one simulated
// timestamp — selection values many fragments of the same partition,
// and every query planned at the same timestamp reuses the fit.
func (d *DeepSea) normalModel(pstat *stats.PartitionStat, now float64, decay stats.Decay) stats.NormalModel {
	if d.mleCacheTime != now || d.mleCache == nil {
		if d.mleCache == nil {
			d.mleCache = make(map[*stats.PartitionStat]stats.NormalModel)
		}
		clear(d.mleCache)
		d.mleCacheTime = now
	}
	if m, ok := d.mleCache[pstat]; ok {
		return m
	}
	m := pstat.FitNormal(now, decay)
	d.mleCache[pstat] = m
	return m
}

// fragValue returns the ranking value of the partition's fragment iv
// under the configured policy.
//
// For the DeepSea policies the paper's Φ(I) = COST(V)·B(I)/S(I) is
// algebraically size-independent (the S(I) terms cancel into
// COST(V)²·H/S(V)), which under a storage budget would prefer
// arbitrarily large fragments over small hot ones. We therefore rank by
// the value DENSITY Φ(I)/S(I) — per-byte value, mirroring the
// 1/S structure the paper's view formula already has. Among equal-size
// fragments the ordering is unchanged (still by adjusted hits), so the
// fragment-correlation behaviour of Section 10.3 is preserved.
func (d *DeepSea) fragValue(ps *partStats, iv interval.Interval, now float64, decay stats.Decay) float64 {
	if ps.pstat == nil {
		return 0
	}
	f := ps.frag(iv)
	vs := ps.vs
	density := func(v float64) float64 {
		if f.Size <= 0 {
			return 0
		}
		return v / float64(f.Size)
	}
	switch d.Cfg.Selection {
	case SelectDeepSea:
		if model := d.normal(ps, now, decay); model.Valid() {
			return density(f.ValueFromHits(model.AdjustedHits(iv), vs.Size, vs.Cost))
		}
		return density(f.Value(now, decay, vs.Size, vs.Cost))
	case SelectDeepSeaRawHits:
		return density(f.Value(now, decay, vs.Size, vs.Cost))
	case SelectNectar:
		return stats.NectarFragValue(f, now, vs.Size, vs.Cost)
	case SelectNectarPlus:
		return stats.NectarPlusFragValue(f, now, vs.Size, vs.Cost)
	default:
		return 0
	}
}
