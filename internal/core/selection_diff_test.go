package core_test

import (
	"math"
	"slices"
	"sort"
	"testing"

	"deepsea/internal/core"
	"deepsea/internal/interval"
	"deepsea/internal/pool"
	"deepsea/internal/query"
	"deepsea/internal/sdss"
	"deepsea/internal/workload"
)

// sdssReplay is the paper's Figure 5 setup at gb modelled GB: a
// BigBench instance whose item_sk values follow the SDSS histogram, and
// the first n (at most 1000) queries that cycle the ten templates over
// every tenth range of a 10,000-query evolving SDSS trace.
func sdssReplay(gb int64, n int) (*workload.Data, []query.Node) {
	data := workload.Generate(gb, 1, workload.Sampler(sdss.Sampler(40)))
	trace := sdss.Trace(sdss.TraceOptions{N: 10000, Seed: 1})
	dom := workload.ItemSkDomain()
	qs := make([]query.Node, n)
	for i := range qs {
		iv, ok := trace[10*i].Intersect(dom)
		if !ok {
			iv = interval.New(dom.Lo, dom.Lo)
		}
		qs[i] = data.Query(workload.AllTemplates[i%len(workload.AllTemplates)], iv)
	}
	return data, qs
}

// newReplaySystem boots a view manager over data with the pool bounded
// to twice the base-table bytes, so eviction is live.
func newReplaySystem(data *workload.Data, sel core.SelectionPolicy) *core.DeepSea {
	cfg := core.DefaultConfig()
	cfg.Smax = 2 * data.TotalBytes()
	cfg.Selection = sel
	d := core.New(cfg)
	names := make([]string, 0, len(data.Tables))
	for n := range data.Tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d.AddBaseTable(data.Tables[n])
	}
	return d
}

// sameCandidates reports whether two candidate lists are equal in order
// and in every field, values bit for bit.
func sameCandidates(a, b []pool.Candidate) bool {
	return slices.EqualFunc(a, b, func(x, y pool.Candidate) bool {
		return x.Kind == y.Kind && x.ViewID == y.ViewID && x.Attr == y.Attr && x.Iv == y.Iv &&
			x.Size == y.Size && x.InPool == y.InPool && math.Float64bits(x.Value) == math.Float64bits(y.Value)
	})
}

// TestSelectionMatchesPerFragmentReference replays an SDSS trace on two
// systems in lockstep, one selecting per partition (production) and one
// per fragment (the reference), under every value measure. Every
// round's ALLCAND, values, greedy split and choices must agree exactly,
// and so must every query's simulated cost.
func TestSelectionMatchesPerFragmentReference(t *testing.T) {
	n := 500
	if testing.Short() {
		n = 120
	}
	data, qs := sdssReplay(100, n)
	for _, sel := range []core.SelectionPolicy{core.SelectDeepSea, core.SelectDeepSeaRawHits, core.SelectNectar, core.SelectNectarPlus} {
		t.Run(sel.String(), func(t *testing.T) {
			var got, want []core.SelectionRound
			prod := newReplaySystem(data, sel)
			core.RecordSelection(prod, false, func(r core.SelectionRound) { got = append(got, r) })
			ref := newReplaySystem(data, sel)
			core.RecordSelection(ref, true, func(r core.SelectionRound) { want = append(want, r) })
			evicted, ranked := 0, 0
			for i, q := range qs {
				got, want = got[:0], want[:0]
				a, err := prod.ProcessQuery(q)
				if err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
				b, err := ref.ProcessQuery(q)
				if err != nil {
					t.Fatalf("reference query %d: %v", i, err)
				}
				if len(got) != len(want) {
					t.Fatalf("query %d: %d selection rounds, reference %d", i, len(got), len(want))
				}
				for k := range got {
					g, w := got[k], want[k]
					switch {
					case !sameCandidates(g.Items, w.Items):
						t.Fatalf("query %d: ALLCAND differs\n got %v\nwant %v", i, g.Items, w.Items)
					case !sameCandidates(g.Keep, w.Keep):
						t.Fatalf("query %d: kept candidates differ\n got %v\nwant %v", i, g.Keep, w.Keep)
					case !sameCandidates(g.Reject, w.Reject):
						t.Fatalf("query %d: rejected candidates differ\n got %v\nwant %v", i, g.Reject, w.Reject)
					case !sameCandidates(g.Evict, w.Evict):
						t.Fatalf("query %d: evictions differ\n got %v\nwant %v", i, g.Evict, w.Evict)
					case !slices.Equal(g.Views, w.Views):
						t.Fatalf("query %d: selected views differ\n got %v\nwant %v", i, g.Views, w.Views)
					case !slices.Equal(g.Frags, w.Frags):
						t.Fatalf("query %d: selected fragments differ\n got %v\nwant %v", i, g.Frags, w.Frags)
					}
					evicted += len(g.Evict)
					ranked += len(g.Items)
				}
				if math.Float64bits(a.TotalSeconds) != math.Float64bits(b.TotalSeconds) {
					t.Fatalf("query %d: simulated seconds %v, reference %v", i, a.TotalSeconds, b.TotalSeconds)
				}
			}
			if evicted == 0 {
				t.Errorf("no round evicted anything; the pool bound was never live")
			}
			t.Logf("%d queries, %d candidates ranked, %d evictions chosen, %d pool fragments at the end",
				len(qs), ranked, evicted, prod.Health().PoolFragments)
		})
	}
}

// BenchmarkSelectConfiguration times one Φ selection round (Sections
// 7.2-7.3: filter, value ALLCAND, greedy) over an evicting SDSS pool of
// about 300 fragments. Each iteration re-fits every partition, as a
// round at a new timestamp does.
func BenchmarkSelectConfiguration(b *testing.B) {
	data, qs := sdssReplay(100, 401)
	d := newReplaySystem(data, core.SelectDeepSea)
	for _, q := range qs[:400] {
		if _, err := d.ProcessQuery(q); err != nil {
			b.Fatal(err)
		}
	}
	rerun := core.CaptureSelection(d)
	if _, err := d.ProcessQuery(qs[400]); err != nil {
		b.Fatal(err)
	}
	ranked := rerun() // creates any records the round values for the first time
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rerun()
	}
	b.ReportMetric(float64(d.Health().PoolFragments), "pool-frags")
	b.ReportMetric(float64(ranked), "candidates")
}
