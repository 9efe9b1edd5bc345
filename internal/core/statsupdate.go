package core

import (
	"deepsea/internal/engine"
	"deepsea/internal/interval"
	"deepsea/internal/matching"
	"deepsea/internal/signature"
	"deepsea/internal/stats"
)

// updateUseStats implements UPDATESTATS over Rewr(Q) (Section 8.4): for
// every view that could answer the query — materialized or not — record a
// benefit use, and record hits on the fragments the rewriting would
// access.
func (d *DeepSea) updateUseStats(rewritings []matching.Rewriting, orig engine.Cost) {
	now := d.Eng.Now()

	// One use per view per query: the best saving among its rewritings.
	bestSaving := make(map[string]float64)
	targets := make(map[string]*signature.Signature)
	for i := range rewritings {
		rw := &rewritings[i]
		saving := orig.Seconds - rw.EstCost.Seconds
		if saving < 0 {
			saving = 0
		}
		if cur, ok := bestSaving[rw.ViewID]; !ok || saving > cur {
			bestSaving[rw.ViewID] = saving
		}
		if _, ok := targets[rw.ViewID]; !ok {
			targets[rw.ViewID] = signature.Of(rw.Target)
		}
	}
	for id, saving := range bestSaving {
		d.Stats.View(id).RecordUse(now, saving)
	}

	// Fragment hits, at most one per fragment per query. Materialized
	// fragments are hit when Algorithm 2 chooses them;
	// tracked-but-unmaterialized fragments are hit when they overlap the
	// range the query needs ("could have been used").
	type fragKey struct {
		view, attr string
		iv         interval.Interval
	}
	hit := make(map[fragKey]bool)
	recordHit := func(view, attr string, f *stats.FragStat) {
		k := fragKey{view, attr, f.Iv}
		if hit[k] {
			return
		}
		hit[k] = true
		f.RecordHit(now)
	}

	for i := range rewritings {
		rw := &rewritings[i]
		if !rw.UsesPool || rw.PartAttr == "" {
			continue
		}
		pstat, ok := d.Stats.LookupPartition(rw.ViewID, rw.PartAttr)
		if !ok {
			continue
		}
		for _, iv := range rw.CoverFrags {
			recordHit(rw.ViewID, rw.PartAttr, pstat.Frag(iv))
		}
	}

	for id := range bestSaving {
		tsig := targets[id]
		for _, pstat := range d.Stats.Partitions(id) {
			needed := pstat.Dom
			if r, ok := tsig.Ranges[pstat.Attr]; ok {
				x, overlap := r.Intersect(pstat.Dom)
				if !overlap {
					continue
				}
				needed = x
			}
			// Fragments ascend by Lo: none past needed.Hi can overlap.
			pstat.Ascend(func(f *stats.FragStat) bool {
				if f.Iv.Lo > needed.Hi {
					return false
				}
				if f.Iv.Overlaps(needed) && !d.fragMaterialized(id, pstat.Attr, f.Iv) {
					// Materialized fragments are hit only when actually
					// chosen (above).
					recordHit(id, pstat.Attr, f)
				}
				return true
			})
		}
	}
}

// fragMaterialized reports whether the exact fragment interval is stored
// in the pool.
func (d *DeepSea) fragMaterialized(view, attr string, iv interval.Interval) bool {
	pv := d.Pool.View(view)
	if pv == nil {
		return false
	}
	part := pv.Parts[attr]
	if part == nil {
		return false
	}
	_, ok := part.Lookup(iv)
	return ok
}
