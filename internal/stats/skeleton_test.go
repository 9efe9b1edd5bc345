package stats

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/query"
	"deepsea/internal/relation"
	"deepsea/internal/signature"
)

// TestFitSkeletonTracksMutations interleaves fits with every kind of
// fragment-set change. Each change follows a fit, so a change that
// failed to invalidate the cached skeleton would be fitted over stale
// parts; every fit must match fitNormalRef bit for bit.
func TestFitSkeletonTracksMutations(t *testing.T) {
	d := Decay{TMax: 400}
	kinds := map[string]int{}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry(d)
		p := r.Partition("v", "a", interval.New(0, 9999))
		tnow := 1.0
		check := func(step int, kind string) {
			t.Helper()
			got, want := p.FitNormal(tnow, d), fitNormalRef(p, tnow, d)
			if !sameModel(got, want) {
				t.Fatalf("seed %d step %d after %s: FitNormal = %+v, reference %+v", seed, step, kind, got, want)
			}
			kinds[kind]++
		}
		randomIv := func() interval.Interval {
			lo := rng.Int63n(11000) - 500
			return interval.New(lo, lo+rng.Int63n(3000))
		}
		for step := 0; step < 150; step++ {
			tnow += rng.Float64() * 30
			frags := p.Fragments()
			switch k := rng.Intn(10); {
			case k < 4:
				f := p.Frag(randomIv())
				if rng.Intn(3) > 0 {
					f.RecordHit(tnow)
				}
				check(step, "frag")
			case k < 6 && len(frags) > 0:
				p.Drop(frags[rng.Intn(len(frags))].Iv)
				check(step, "drop")
			case k < 8:
				keep := func(iv interval.Interval) bool { return iv.Lo%3 == 0 }
				if p.PruneExpired(tnow, d, keep, true) > 0 {
					check(step, "prune")
				} else {
					check(step, "prune (nothing dropped)")
				}
			case k < 9 && len(frags) > 0:
				// Hits change the fit but not the skeleton.
				frags[rng.Intn(len(frags))].RecordHit(tnow)
				check(step, "hit")
			default:
				r2 := NewRegistry(d)
				r2.Restore(r.Snapshot())
				p2, ok := r2.LookupPartition("v", "a")
				if !ok {
					t.Fatal("restored registry lost the partition")
				}
				p2.FitNormal(tnow, d)
				r, p = r2, p2
				check(step, "restore")
			}
		}
	}
	for _, kind := range []string{"frag", "drop", "prune", "hit", "restore"} {
		if kinds[kind] == 0 {
			t.Errorf("no fit followed a %s; the test proved nothing for it", kind)
		}
	}
}

// TestExpiryCursorMatchesSearch checks the expiry cursor against
// sort.SearchFloat64s while hits are appended and compacted away, under
// thresholds that rise, repeat, jump and go backwards.
func TestExpiryCursorMatchesSearch(t *testing.T) {
	for _, monotone := range []bool{true, false} {
		backwards := 0
		for seed := int64(0); seed < 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			d := Decay{TMax: 50 + rng.Float64()*200}
			p := NewPartitionStat("v", "a", interval.New(0, 99))
			f := p.Frag(interval.New(0, 99))
			last, tnow := 0.0, 1.0
			for step := 0; step < 400; step++ {
				switch r := rng.Intn(10); {
				case r == 0:
					tnow += d.TMax * (1 + rng.Float64())
				case r < 2:
				case r < 3 && !monotone:
					tnow = math.Max(tnow-rng.Float64()*2*d.TMax, 0.5)
					backwards++
				default:
					tnow += rng.Float64() * 10
				}
				// Hits stay non-decreasing even when the reading time
				// goes back.
				if rng.Intn(2) == 0 && tnow >= last {
					f.RecordHit(tnow)
					last = tnow
				}
				if monotone && rng.Intn(4) == 0 {
					p.PruneExpired(tnow, d, func(interval.Interval) bool { return true }, true)
				}
				thr := tnow - d.TMax
				if got, want := f.firstLive(thr), sort.SearchFloat64s(f.Hits, thr); got != want {
					t.Fatalf("monotone=%v seed %d step %d: cursor = %d, search = %d", monotone, seed, step, got, want)
				}
				if got, want := f.decayedHits(tnow, d), f.DecayedHits(tnow, d); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("monotone=%v seed %d step %d: decayedHits = %v, DecayedHits %v", monotone, seed, step, got, want)
				}
			}
		}
		if !monotone && backwards == 0 {
			t.Fatal("the threshold never went backwards; the test proved nothing")
		}
	}
}

// TestShardMatchesFNV pins the inline hash to hash/fnv's FNV-1a, so
// shard placement (and with it every shard-ordered walk) is unchanged.
func TestShardMatchesFNV(t *testing.T) {
	sales := relation.Schema{Name: "store_sales", Cols: []relation.Column{
		{Name: "ss_item_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 400000},
		{Name: "ss_quantity", Type: relation.Int},
	}}
	item := relation.Schema{Name: "item", Cols: []relation.Column{
		{Name: "i_item_sk", Type: relation.Int, Ordered: true, Lo: 0, Hi: 400000},
		{Name: "i_category", Type: relation.String},
	}}
	join := &query.Join{
		Left:  query.NewScan("store_sales", sales),
		Right: query.NewScan("item", item),
		LCol:  "ss_item_sk", RCol: "i_item_sk",
	}
	ids := []string{"", "a", "v7", "view:x", "\xff\x00unicode ✓"}
	for _, n := range []query.Node{
		join,
		&query.Select{Child: join, Ranges: []query.RangePred{{Col: "ss_item_sk", Iv: interval.New(10, 2000)}}},
		&query.Aggregate{Child: join, GroupBy: []string{"i_category"}, Aggs: []query.AggSpec{{Func: query.Sum, Col: "ss_quantity", As: "q"}}},
	} {
		ids = append(ids, signature.Of(n).Key())
	}
	for _, shards := range []int{1, 3, 16, 64} {
		r := NewShardedRegistry(Decay{}, shards)
		for _, id := range ids {
			h := fnv.New32a()
			h.Write([]byte(id))
			want := h.Sum32() % uint32(shards)
			if r.shard(id) != &r.shards[want] {
				t.Errorf("shards=%d: %q is not on shard %d, where hash/fnv puts it", shards, id, want)
			}
		}
	}
	r := NewRegistry(Decay{})
	if n := testing.AllocsPerRun(10, func() { r.shard(ids[len(ids)-1]) }); n != 0 {
		t.Errorf("shard lookup allocated %v times per run", n)
	}
}
