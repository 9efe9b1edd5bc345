package core

import (
	"fmt"
	"math"
	"sort"

	"deepsea/internal/interval"
	"deepsea/internal/partition"
	"deepsea/internal/pool"
	"deepsea/internal/stats"
)

// selectConfigurationRef is the per-fragment form of
// selectConfiguration: every fragment is valued on its own, looking up
// its view and partition in the registry each time; the "already
// materialized" test builds a full cover; candidates are matched back
// by string key; and the greedy sorts copies of the candidates
// (selectGreedyRef). The per-partition selection must reproduce every
// list and every value bit for bit. It also returns ALLCAND and the
// greedy's split for the comparison.
func (d *DeepSea) selectConfigurationRef(vcands []viewCandidate, fcands []fragCandidate) (items, keep, reject []pool.Candidate, selViews []selectedView, selFrags []fragCandidate, evict []pool.Candidate) {
	now := d.Eng.Now()
	decay := d.Stats.Decay

	var vsel []viewCandidate
	for _, vc := range vcands {
		vs := d.Stats.View(vc.id)
		if vc.matCost <= d.viewBenefit(vs, now, decay) {
			vsel = append(vsel, vc)
		}
	}
	var psel []fragCandidate
	for _, fc := range fcands {
		if fc.createCost <= d.fragBenefitRef(fc.viewID, fc.attr, fc.iv, now, decay) {
			psel = append(psel, fc)
		}
	}

	backV := make(map[string]viewCandidate)
	backP := make(map[string]newPiece)
	backF := make(map[string]fragCandidate)
	wholeInfo := make(map[string]selectedView)
	for _, fc := range psel {
		c := pool.Candidate{
			Kind:   pool.Frag,
			ViewID: fc.viewID,
			Attr:   fc.attr,
			Iv:     fc.iv,
			Size:   fc.estSize,
			Value:  d.fragValueRef(fc.viewID, fc.attr, fc.iv, now, decay),
		}
		items = append(items, c)
		backF[c.Key()] = fc
	}
	for _, vc := range vsel {
		proposed := false
		if d.Cfg.adaptive() {
			for _, pstat := range d.Stats.Partitions(vc.id) {
				if i := vc.schema.ColIndex(pstat.Attr); i < 0 || !vc.schema.Cols[i].Ordered {
					continue
				}
				attr, dom := pstat.Attr, pstat.Dom
				pieces := []interval.Interval(pstat.Cand.Clone())
				if len(pieces) == 0 {
					pieces = []interval.Interval{dom}
				}
				pieces = coalesceMin(pieces, func(iv interval.Interval) int64 {
					return d.uniformFragSize(vc.id, dom, iv)
				}, d.Cfg.minFragBytes())
				var existing *partition.Partition
				if pv := d.Pool.View(vc.id); pv != nil {
					existing = pv.Parts[attr]
				}
				proposed = true
				for _, iv := range pieces {
					size := d.uniformFragSize(vc.id, dom, iv)
					if existing != nil {
						if _, _, gaps := existing.Cover(iv); len(gaps) == 0 {
							continue
						}
					}
					c := pool.Candidate{
						Kind:   pool.Frag,
						ViewID: vc.id,
						Attr:   attr,
						Iv:     iv,
						Size:   size,
						Value:  d.fragValueRef(vc.id, attr, iv, now, decay),
					}
					if _, dup := backF[c.Key()]; dup {
						continue
					}
					items = append(items, c)
					backP[c.Key()] = newPiece{vc: vc, attr: attr, dom: dom, iv: iv}
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
			Value:  d.viewValue(d.Stats.View(vc.id), now, decay),
		}
		items = append(items, c)
		backV[c.Key()] = vc
		attr, dom, _ := d.partitionKey(vc)
		wholeInfo[vc.id] = selectedView{vc: vc, attr: attr, dom: dom}
	}
	for _, pv := range d.Pool.Views() {
		if pv.Path != "" {
			items = append(items, pool.Candidate{
				Kind:   pool.WholeView,
				ViewID: pv.ID,
				Size:   pv.Size,
				Value:  d.viewValue(d.Stats.View(pv.ID), now, decay),
				InPool: true,
			})
		}
		for _, attr := range pv.PartAttrs() {
			for _, f := range pv.Parts[attr].Fragments() {
				items = append(items, pool.Candidate{
					Kind:   pool.Frag,
					ViewID: pv.ID,
					Attr:   attr,
					Iv:     f.Iv,
					Size:   f.Size,
					Value:  d.fragValueRef(pv.ID, attr, f.Iv, now, decay),
					InPool: true,
				})
			}
		}
	}

	keep, reject = selectGreedyRef(items, d.Cfg.Smax)

	byView := make(map[string]*selectedView)
	var order []string
	for _, c := range keep {
		if c.InPool {
			continue
		}
		if vc, ok := backV[c.Key()]; ok {
			key := vc.id
			sv := wholeInfo[vc.id]
			sv.value = c.Value
			if _, seen := byView[key]; !seen {
				byView[key] = &sv
				order = append(order, key)
			}
		}
		if np, ok := backP[c.Key()]; ok {
			key := np.vc.id + "\x00" + np.attr
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
		if fc, ok := backF[c.Key()]; ok {
			fc.value = c.Value
			selFrags = append(selFrags, fc)
		}
	}
	for _, id := range order {
		selViews = append(selViews, *byView[id])
	}
	for _, c := range reject {
		if c.InPool {
			evict = append(evict, c)
		}
	}
	return items, keep, reject, selViews, selFrags, evict
}

// selectGreedyRef is pool.SelectGreedy ranking sorted copies of the
// candidates with sort.Slice.
func selectGreedyRef(cands []pool.Candidate, smax int64) (keep, reject []pool.Candidate) {
	ranked := append([]pool.Candidate(nil), cands...)
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if a.Value != b.Value {
			return a.Value > b.Value
		}
		if a.InPool != b.InPool {
			return a.InPool
		}
		return a.Key() < b.Key()
	})
	var used int64
	for _, c := range ranked {
		if smax > 0 && used+c.Size > smax {
			reject = append(reject, c)
			continue
		}
		used += c.Size
		keep = append(keep, c)
	}
	return keep, reject
}

// fragBenefitRef is fragBenefit with the fragment's view and partition
// looked up per call.
func (d *DeepSea) fragBenefitRef(viewID, attr string, iv interval.Interval, now float64, decay stats.Decay) float64 {
	vs, ok := d.Stats.LookupView(viewID)
	if !ok {
		return 0
	}
	pstat, ok := d.Stats.LookupPartition(viewID, attr)
	if !ok {
		return 0
	}
	f := pstat.Frag(iv)
	d.refreshFragSizeRef(f, viewID, pstat)
	switch d.Cfg.Selection {
	case SelectDeepSea:
		model := d.normalModel(pstat, now, decay)
		if model.Valid() {
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

// refreshFragSizeRef is refreshFragSize with the view looked up per
// call.
func (d *DeepSea) refreshFragSizeRef(f *stats.FragStat, viewID string, pstat *stats.PartitionStat) {
	if f.Measured {
		return
	}
	if est := d.uniformFragSize(viewID, pstat.Dom, f.Iv); est > 0 {
		f.Size = est
	}
}

// fragValueRef is fragValue with the fragment's view and partition
// looked up per call.
func (d *DeepSea) fragValueRef(viewID, attr string, iv interval.Interval, now float64, decay stats.Decay) float64 {
	vs, ok := d.Stats.LookupView(viewID)
	if !ok {
		return 0
	}
	pstat, ok := d.Stats.LookupPartition(viewID, attr)
	if !ok {
		return 0
	}
	f := pstat.Frag(iv)
	d.refreshFragSizeRef(f, viewID, pstat)
	density := func(v float64) float64 {
		if f.Size <= 0 {
			return 0
		}
		return v / float64(f.Size)
	}
	switch d.Cfg.Selection {
	case SelectDeepSea:
		model := d.normalModel(pstat, now, decay)
		if model.Valid() {
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

// describeSelection renders chosen views and fragments with every field
// the round decided, values as bit patterns, for comparison.
func describeSelection(views []selectedView, frags []fragCandidate) (vs, fs []string) {
	for _, v := range views {
		vs = append(vs, fmt.Sprintf("%s attr=%s dom=%s pieces=%v value=%x",
			v.vc.id, v.attr, v.dom, v.pieces, math.Float64bits(v.value)))
	}
	for _, f := range frags {
		fs = append(fs, fmt.Sprintf("%s attr=%s iv=%s size=%d cost=%x value=%x byproduct=%v gap=%v",
			f.viewID, f.attr, f.iv, f.estSize, math.Float64bits(f.createCost), math.Float64bits(f.value), f.byproduct, f.fromGap))
	}
	return vs, fs
}
