package core

import (
	"math"

	"deepsea/internal/pool"
)

// SelectionRound is one selection round as the differential tests
// compare it: ALLCAND with its values, the greedy's kept and rejected
// candidates in rank order, and what the round chose to materialize
// and to evict.
type SelectionRound struct {
	Items, Keep, Reject, Evict []pool.Candidate
	Views, Frags               []string
}

// RecordSelection hands every selection round of d to rec. With
// reference set the rounds run selectConfigurationRef, the per-fragment
// selection, instead of the production one.
func RecordSelection(d *DeepSea, reference bool, rec func(SelectionRound)) {
	d.selectFn = func(vcands []viewCandidate, fcands []fragCandidate) ([]selectedView, []fragCandidate, []pool.Candidate) {
		var r SelectionRound
		var views []selectedView
		var frags []fragCandidate
		if reference {
			r.Items, r.Keep, r.Reject, views, frags, r.Evict = d.selectConfigurationRef(vcands, fcands)
		} else {
			rk := d.rankCandidates(vcands, fcands)
			r.Items = rk.items
			r.Keep, r.Reject = pool.SelectGreedy(rk.items, d.Cfg.Smax)
			views, frags, r.Evict = rk.choose(r.Keep, r.Reject)
		}
		r.Views, r.Frags = describeSelection(views, frags)
		rec(r)
		return views, frags, r.Evict
	}
}

// CaptureSelection makes d keep the inputs of its selection rounds. The
// returned function re-runs the last captured round's selection on d's
// current state, as a round at a new timestamp would: the per-timestamp
// fit memo is dropped first, so every partition is fitted again. It
// returns the size of the round's ALLCAND.
func CaptureSelection(d *DeepSea) (rerun func() int) {
	var vcands []viewCandidate
	var fcands []fragCandidate
	var ranked int
	d.selectFn = func(v []viewCandidate, f []fragCandidate) ([]selectedView, []fragCandidate, []pool.Candidate) {
		vcands, fcands = v, f
		r := d.rankCandidates(v, f)
		ranked = len(r.items)
		return r.choose(pool.SelectGreedy(r.items, d.Cfg.Smax))
	}
	return func() int {
		d.mleCacheTime = math.NaN()
		d.selectConfiguration(vcands, fcands)
		return ranked
	}
}
