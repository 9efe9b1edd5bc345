package pool

import (
	"fmt"
	"math/rand"
	"testing"

	"deepsea/internal/interval"
)

// benchCandidates builds an ALLCAND of n candidates shaped like an
// evicting SDSS round: mostly pool fragments of a few partitions, some
// new pieces and whole views, and values with ties (zero-hit
// fragments) so the key tie-break runs too.
func benchCandidates(n int) (cands []Candidate, smax int64) {
	rng := rand.New(rand.NewSource(1))
	var total int64
	for i := 0; i < n; i++ {
		c := Candidate{
			Kind:   Frag,
			ViewID: fmt.Sprintf("R{store_sales,item}J{ss_item_sk=i_item_sk}S{}G{i_category}A{sum(ss_quantity)}#%d", i%7),
			Attr:   "ss_item_sk",
			Iv:     interval.New(int64(i)*1000, int64(i)*1000+999),
			Size:   1<<20 + rng.Int63n(1<<26),
			InPool: rng.Intn(4) > 0,
		}
		if i%10 == 9 {
			c.Kind, c.Attr, c.Iv = WholeView, "", interval.Interval{}
			c.ViewID = fmt.Sprintf("%s/%d", c.ViewID, i)
		}
		if rng.Intn(5) > 0 {
			c.Value = rng.ExpFloat64() * 1e-9
		}
		cands = append(cands, c)
		total += c.Size
	}
	return cands, total * 2 / 3
}

func BenchmarkSelectGreedy(b *testing.B) {
	cands, smax := benchCandidates(300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keep, reject := SelectGreedy(cands, smax)
		if len(keep)+len(reject) != len(cands) {
			b.Fatal("candidates lost")
		}
	}
}
