package stats

// Nectar-style selection measures (Section 10.1). The paper compares
// DeepSea against Nectar's cost-benefit model and against "Nectar+", an
// extension of Nectar that accumulates benefit like DeepSea but without
// the decay function:
//
//	N+(V) = COST(V) · N(V) / (S(V) · ΔT)
//	N(V)  = Σ_{Q used V at t} (COST(Q) − COST(Q/V))
//
// where ΔT is the time elapsed since the last access to V. Plain Nectar
// does not consider accumulated benefit: it uses only the most recent
// saving in place of the sum.

// minDeltaT avoids division by zero when a view was used at the current
// timestamp.
const minDeltaT = 1e-9

// NectarValue returns the plain-Nectar measure for a view: the most
// recent saving, weighted by cost over size and the time since last use.
func NectarValue(v *ViewStat, tnow float64) float64 {
	if v.Size <= 0 || len(v.Uses) == 0 {
		return 0
	}
	last := v.Uses[len(v.Uses)-1]
	dt := tnow - last.T
	if dt < minDeltaT {
		dt = minDeltaT
	}
	return v.Cost * last.Saving / (float64(v.Size) * dt)
}

// NectarPlusValue returns the Nectar+ measure for a view: accumulated,
// undecayed benefit weighted by cost over size and time since last use.
func NectarPlusValue(v *ViewStat, tnow float64) float64 {
	if v.Size <= 0 || len(v.Uses) == 0 {
		return 0
	}
	var sum float64
	for _, u := range v.Uses {
		sum += u.Saving
	}
	dt := tnow - v.Uses[len(v.Uses)-1].T
	if dt < minDeltaT {
		dt = minDeltaT
	}
	return v.Cost * sum / (float64(v.Size) * dt)
}

// NectarFragValue returns the plain-Nectar measure for a fragment: the
// per-hit benefit (S(I)/S(V) · COST(V)) of the most recent hit only,
// weighted by cost over size and time since last hit (the paper adapts
// its Section 7.1 formula "by removing the application of the decay
// function"; plain Nectar further drops accumulation).
func NectarFragValue(f *FragStat, tnow float64, viewSize int64, viewCost float64) float64 {
	if f.Size <= 0 || viewSize <= 0 || len(f.Hits) == 0 {
		return 0
	}
	perHit := float64(f.Size) / float64(viewSize) * viewCost
	dt := tnow - f.Hits[len(f.Hits)-1]
	if dt < minDeltaT {
		dt = minDeltaT
	}
	return viewCost * perHit / (float64(f.Size) * dt)
}

// NectarPlusFragValue returns the Nectar+ measure for a fragment:
// accumulated undecayed hit benefit, weighted like NectarFragValue.
func NectarPlusFragValue(f *FragStat, tnow float64, viewSize int64, viewCost float64) float64 {
	if f.Size <= 0 || viewSize <= 0 || len(f.Hits) == 0 {
		return 0
	}
	perHit := float64(f.Size) / float64(viewSize) * viewCost
	sum := perHit * float64(f.HitCount())
	dt := tnow - f.Hits[len(f.Hits)-1]
	if dt < minDeltaT {
		dt = minDeltaT
	}
	return viewCost * sum / (float64(f.Size) * dt)
}
