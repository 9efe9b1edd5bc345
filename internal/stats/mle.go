package stats

import (
	"cmp"
	"math"
	"slices"

	"deepsea/internal/interval"
)

// NormalModel is a fitted N(mu, sigma) access distribution over a
// partition attribute's domain, together with the total decayed hit mass
// it was fitted from.
type NormalModel struct {
	Mu     float64
	Sigma  float64
	Htotal float64
	// Parts is the number of boundary-aligned parts the fit used (the
	// paper's n in the adjusted sample variance).
	Parts int
}

// Valid reports whether the model carries enough signal to adjust hits.
func (m NormalModel) Valid() bool {
	return m.Htotal > 0 && m.Sigma > 0 && !math.IsNaN(m.Sigma)
}

// CDF evaluates P(x <= c) under the fitted normal distribution.
func (m NormalModel) CDF(c float64) float64 {
	return 0.5 * (1 + math.Erf((c-m.Mu)/(m.Sigma*math.Sqrt2)))
}

// AdjustedHits returns HA(I) = Htotal · (P(x <= u) − P(x <= l)), the
// paper's smoothed hit count for a fragment (Section 7.1). The estimate
// deliberately ignores interval overlap, as the paper's does.
func (m NormalModel) AdjustedHits(iv interval.Interval) float64 {
	if !m.Valid() {
		return 0
	}
	return m.Htotal * (m.CDF(float64(iv.Hi)) - m.CDF(float64(iv.Lo)))
}

// fitPart is one boundary-aligned part of a FitNormal quantization and
// the hit mass spread onto it.
type fitPart struct {
	iv   interval.Interval
	hits float64
}

// FitNormal computes the maximum-likelihood normal distribution for the
// partition's observed hits, following Section 7.1:
//
// The domain is quantized into parts aligned with every fragment
// boundary, each fragment's decayed hits are spread over the parts it
// contains proportionally to part length (the paper spreads hits evenly
// over equi-sized parts; length-proportional spreading over
// boundary-aligned atoms computes the same smoothing without requiring a
// common part size to exist), and the weighted MLE estimators
//
//	mu    = Σ w_i x_i / W
//	sigma² = (Σ w_i (x_i − mu)²/W) · n/(n−1)
//
// are evaluated with x_i the part midpoints, w_i the per-part hits, and
// n the number of parts (the paper's adjusted sample variance).
//
// A fit costs O(F log F + overlaps) for F tracked fragments: the parts
// are sorted and disjoint, so each fragment binary-searches its first
// part and stops at the first part past its end. Fragments are visited
// in (Lo, Hi) order and each part's additions happen in that order, so
// the result does not depend on how the overlaps were found.
func (p *PartitionStat) FitNormal(tnow float64, d Decay) NormalModel {
	frags := p.order
	if len(frags) == 0 {
		return NormalModel{}
	}

	// Collect boundary-aligned atoms: cuts at every fragment Lo and
	// Hi+1, clamped to the domain.
	cuts := append(p.fitCuts[:0], p.Dom.Lo, p.Dom.Hi+1)
	for _, f := range frags {
		if f.Iv.Lo >= p.Dom.Lo && f.Iv.Lo <= p.Dom.Hi {
			cuts = append(cuts, f.Iv.Lo)
		}
		if f.Iv.Hi+1 > p.Dom.Lo && f.Iv.Hi+1 <= p.Dom.Hi+1 {
			cuts = append(cuts, f.Iv.Hi+1)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	p.fitCuts = cuts

	parts := p.fitParts[:0]
	for i := 0; i+1 < len(cuts); i++ {
		parts = append(parts, fitPart{iv: interval.New(cuts[i], cuts[i+1]-1)})
	}
	p.fitParts = parts

	// Spread each fragment's decayed hits over the parts it contains,
	// proportionally to part length.
	var htotal float64
	for _, f := range frags {
		h := f.DecayedHits(tnow, d)
		htotal += h
		if h == 0 {
			continue
		}
		fragLen := float64(f.Iv.Len())
		// First part ending at or after the fragment's start.
		i, _ := slices.BinarySearchFunc(parts, f.Iv.Lo, func(pt fitPart, lo int64) int {
			return cmp.Compare(pt.iv.Hi, lo)
		})
		for ; i < len(parts) && parts[i].iv.Lo <= f.Iv.Hi; i++ {
			ov := parts[i].iv.OverlapLen(f.Iv)
			if ov > 0 {
				parts[i].hits += h * float64(ov) / fragLen
			}
		}
	}
	if htotal <= 0 {
		return NormalModel{}
	}

	var wsum, mu float64
	for _, pt := range parts {
		x := float64(pt.iv.Lo+pt.iv.Hi) / 2
		mu += pt.hits * x
		wsum += pt.hits
	}
	mu /= wsum

	var variance float64
	for _, pt := range parts {
		x := float64(pt.iv.Lo+pt.iv.Hi) / 2
		dx := x - mu
		variance += pt.hits * dx * dx
	}
	variance /= wsum
	n := len(parts)
	if n > 1 {
		variance *= float64(n) / float64(n-1)
	}
	sigma := math.Sqrt(variance)
	if sigma <= 0 {
		// All mass on a single part: fall back to that part's extent so
		// the model still concentrates probability near the hot spot.
		for _, pt := range parts {
			if pt.hits > 0 {
				sigma = math.Max(float64(pt.iv.Len())/4, 1)
				break
			}
		}
	}
	return NormalModel{Mu: mu, Sigma: sigma, Htotal: htotal, Parts: n}
}
