package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"deepsea/internal/interval"
)

// fitNormalRef is the direct O(F·parts) form of FitNormal: a cut set in
// a map, and every fragment's hits offered to every part. FitNormal must
// reproduce it bit for bit.
func fitNormalRef(p *PartitionStat, tnow float64, d Decay) NormalModel {
	frags := p.Fragments()
	if len(frags) == 0 {
		return NormalModel{}
	}
	cutSet := map[int64]bool{p.Dom.Lo: true, p.Dom.Hi + 1: true}
	for _, f := range frags {
		if f.Iv.Lo >= p.Dom.Lo && f.Iv.Lo <= p.Dom.Hi {
			cutSet[f.Iv.Lo] = true
		}
		if f.Iv.Hi+1 > p.Dom.Lo && f.Iv.Hi+1 <= p.Dom.Hi+1 {
			cutSet[f.Iv.Hi+1] = true
		}
	}
	cuts := make([]int64, 0, len(cutSet))
	for c := range cutSet {
		cuts = append(cuts, c)
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	type part struct {
		iv   interval.Interval
		hits float64
	}
	parts := make([]part, 0, len(cuts)-1)
	for i := 0; i+1 < len(cuts); i++ {
		parts = append(parts, part{iv: interval.New(cuts[i], cuts[i+1]-1)})
	}
	var htotal float64
	for _, f := range frags {
		h := f.DecayedHits(tnow, d)
		htotal += h
		if h == 0 {
			continue
		}
		fragLen := float64(f.Iv.Len())
		for i := range parts {
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
		for _, pt := range parts {
			if pt.hits > 0 {
				sigma = math.Max(float64(pt.iv.Len())/4, 1)
				break
			}
		}
	}
	return NormalModel{Mu: mu, Sigma: sigma, Htotal: htotal, Parts: n}
}

// sameModel reports whether two models are bit-identical.
func sameModel(a, b NormalModel) bool {
	return math.Float64bits(a.Mu) == math.Float64bits(b.Mu) &&
		math.Float64bits(a.Sigma) == math.Float64bits(b.Sigma) &&
		math.Float64bits(a.Htotal) == math.Float64bits(b.Htotal) &&
		a.Parts == b.Parts
}

// randomPartition tracks nFrags fragments over a random domain. Some
// overlap each other, some stick out of (or lie beyond) the domain's
// edges, some are never hit, and some hits have expired by tnow.
func randomPartition(rng *rand.Rand, nFrags int) (p *PartitionStat, tnow float64) {
	lo := rng.Int63n(1000) - 500
	dom := interval.New(lo, lo+1+rng.Int63n(20000))
	p = NewPartitionStat("v", "a", dom)
	span := dom.Len()
	t := 1.0
	for i := 0; i < nFrags; i++ {
		flo := dom.Lo - span/10 + rng.Int63n(span+span/5)
		fhi := flo + rng.Int63n(span/3+1)
		f := p.Frag(interval.New(flo, fhi))
		if rng.Intn(4) == 0 {
			continue // never hit
		}
		for h := rng.Intn(6); h > 0; h-- {
			t += float64(rng.Intn(40))
			f.RecordHit(t)
		}
	}
	return p, t
}

func TestFitNormalMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		p, tnow := randomPartition(rng, 1+rng.Intn(60))
		for _, d := range []Decay{{}, {TMax: 300}} {
			got, want := p.FitNormal(tnow, d), fitNormalRef(p, tnow, d)
			if !sameModel(got, want) {
				t.Fatalf("trial %d decay %v: FitNormal = %+v, reference %+v", trial, d, got, want)
			}
			// A refit reuses the scratch buffers and must not drift.
			if again := p.FitNormal(tnow, d); !sameModel(again, want) {
				t.Fatalf("trial %d decay %v: refit = %+v, reference %+v", trial, d, again, want)
			}
		}
	}
}

func TestFitNormalMatchesReferenceEdgeCases(t *testing.T) {
	dom := interval.New(0, 999)
	cases := map[string]func(p *PartitionStat){
		"empty": func(p *PartitionStat) {},
		"single part": func(p *PartitionStat) {
			p.Frag(dom).RecordHit(5)
		},
		"clipped at both edges": func(p *PartitionStat) {
			p.Frag(interval.New(-200, 100)).RecordHit(5)
			p.Frag(interval.New(900, 1500)).RecordHit(5)
			p.Frag(interval.New(-50, 1200)).RecordHit(5)
		},
		"beyond the domain": func(p *PartitionStat) {
			p.Frag(interval.New(-300, -1)).RecordHit(5)
			p.Frag(interval.New(1000, 1100)).RecordHit(5)
			p.Frag(interval.New(10, 20)).RecordHit(5)
		},
		"zero-hit fragments only": func(p *PartitionStat) {
			p.Frag(interval.New(0, 499))
			p.Frag(interval.New(500, 999))
		},
		"nested overlaps": func(p *PartitionStat) {
			for i := int64(0); i < 10; i++ {
				f := p.Frag(interval.New(i*40, 999-i*40))
				for h := int64(0); h <= i; h++ {
					f.RecordHit(5)
				}
			}
		},
	}
	for name, build := range cases {
		p := NewPartitionStat("v", "a", dom)
		build(p)
		got, want := p.FitNormal(5, Decay{}), fitNormalRef(p, 5, Decay{})
		if !sameModel(got, want) {
			t.Errorf("%s: FitNormal = %+v, reference %+v", name, got, want)
		}
	}
}

func TestFitNormalSteadyStateAllocatesNothing(t *testing.T) {
	p, tnow := benchPartition(500, 5)
	p.FitNormal(tnow, benchDecay) // sizes the scratch buffers
	if n := testing.AllocsPerRun(20, func() { p.FitNormal(tnow, benchDecay) }); n != 0 {
		t.Errorf("steady-state FitNormal allocated %v times per run, want 0", n)
	}
}

func TestFragmentsStayOrderedUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := NewPartitionStat("v", "a", interval.New(0, 999))
	live := map[interval.Interval]bool{}
	for step := 0; step < 2000; step++ {
		lo := rng.Int63n(1000)
		iv := interval.New(lo, lo+rng.Int63n(1000-lo))
		if rng.Intn(3) == 0 {
			p.Drop(iv)
			delete(live, iv)
		} else {
			p.Frag(iv)
			live[iv] = true
		}
	}
	got := p.Fragments()
	if len(got) != len(live) {
		t.Fatalf("Fragments() = %d records, want %d", len(got), len(live))
	}
	for i, f := range got {
		if !live[f.Iv] {
			t.Fatalf("Fragments() holds dropped %s", f.Iv)
		}
		if i > 0 && cmpFragIv(got[i-1], f.Iv) >= 0 {
			t.Fatalf("Fragments() out of order: %s before %s", got[i-1].Iv, f.Iv)
		}
	}
}
