package stats

import (
	"fmt"
	"math/rand"
	"testing"

	"deepsea/internal/interval"
)

// benchPartition builds a partition statistic with many tracked
// fragments and a realistic hit history: hits go round-robin over the
// fragments across two decay windows, so about half of them have
// expired at the returned tnow while every fragment still carries live
// hit mass.
func benchPartition(nFrags, hitsPerFrag int) (p *PartitionStat, tnow float64) {
	rng := rand.New(rand.NewSource(1))
	p = NewPartitionStat("v", "a", interval.New(0, 400000))
	frags := make([]*FragStat, nFrags)
	for i := range frags {
		lo := rng.Int63n(395000)
		frags[i] = p.Frag(interval.New(lo, lo+4000))
		frags[i].Size = 1 << 27
	}
	step := 2 * benchDecay.TMax / float64(nFrags*hitsPerFrag)
	t := 1.0
	for h := 0; h < hitsPerFrag; h++ {
		for _, f := range frags {
			t += step
			f.RecordHit(t)
		}
	}
	return p, t
}

var benchDecay = Decay{TMax: 3000}

func BenchmarkFitNormal(b *testing.B) {
	for _, nFrags := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("F=%d", nFrags), func(b *testing.B) {
			p, tnow := benchPartition(nFrags, 20)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if m := p.FitNormal(tnow, benchDecay); !m.Valid() {
					b.Fatal("invalid model")
				}
			}
		})
	}
}

func BenchmarkDecayedHitsLongHistory(b *testing.B) {
	f := &FragStat{Iv: interval.New(0, 1000), Size: 1}
	for t := 1.0; t < 100000; t += 10 {
		f.RecordHit(t)
	}
	d := Decay{TMax: 3000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.DecayedHits(100001, d)
	}
}

func BenchmarkViewBenefitLongHistory(b *testing.B) {
	v := &ViewStat{ID: "v", Size: 1 << 30, Cost: 100}
	for t := 1.0; t < 100000; t += 10 {
		v.RecordUse(t, 50)
	}
	d := Decay{TMax: 3000}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Benefit(100001, d)
	}
}
