package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"deepsea/internal/interval"
)

// TestCompactionIsExact drives two records through the same random,
// non-decreasing hit sequence: one is compacted by PruneExpired at
// every step, the other never. They must agree bit for bit on every
// reading, at every non-decreasing tnow.
func TestCompactionIsExact(t *testing.T) {
	d := Decay{TMax: 300}
	compactedOnce := false
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := NewPartitionStat("v", "a", interval.New(0, 99))
		c := p.Frag(interval.New(0, 99))
		full := &FragStat{Iv: c.Iv}
		keep := func(interval.Interval) bool { return true }
		tnow := 1.0
		for step := 0; step < 400; step++ {
			// Bursts, pauses longer than the timeout, and repeated
			// timestamps.
			switch r := rng.Intn(10); {
			case r == 0:
				tnow += d.TMax * (1 + rng.Float64())
			case r < 3:
			default:
				tnow += rng.Float64() * 20
			}
			if rng.Intn(3) > 0 {
				c.RecordHit(tnow)
				full.RecordHit(tnow)
			}
			if rng.Intn(2) == 0 {
				p.PruneExpired(tnow, d, keep, true)
			}
			if got, want := c.DecayedHits(tnow, d), full.DecayedHits(tnow, d); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d step %d: compacted DecayedHits = %v, uncompacted %v", seed, step, got, want)
			}
			if c.HitCount() != full.HitCount() {
				t.Fatalf("seed %d step %d: HitCount %d, want %d", seed, step, c.HitCount(), full.HitCount())
			}
			if n := len(full.Hits); n > 0 && c.Hits[len(c.Hits)-1] != full.Hits[n-1] {
				t.Fatalf("seed %d step %d: last hit %v, want %v", seed, step, c.Hits[len(c.Hits)-1], full.Hits[n-1])
			}
			if c.dropped > 0 {
				compactedOnce = true
			}
		}
	}
	if !compactedOnce {
		t.Fatal("no record was ever compacted; the test proved nothing")
	}
}

func TestCompactionKeepsLastHitAndBoundsHistory(t *testing.T) {
	d := Decay{TMax: 100}
	p := NewPartitionStat("v", "a", interval.New(0, 99))
	f := p.Frag(interval.New(0, 9))
	for tm := 1.0; tm <= 1000; tm++ {
		f.RecordHit(tm)
		p.PruneExpired(tm, d, nil, true)
	}
	// Hits older than tnow-TMax are dropped once they are half the
	// slice, so at most ~2·TMax hits (one per second here) remain.
	if len(f.Hits) > 2*int(d.TMax)+1 {
		t.Errorf("retained %d hits, want <= %d", len(f.Hits), 2*int(d.TMax)+1)
	}
	if f.HitCount() != 1000 {
		t.Errorf("HitCount = %d, want 1000", f.HitCount())
	}

	// A materialized fragment whose hits all expired keeps its last one.
	p.PruneExpired(5000, d, func(interval.Interval) bool { return true }, true)
	if len(f.Hits) != 1 || f.Hits[0] != 1000 || f.HitCount() != 1000 {
		t.Errorf("after full expiry: Hits %v, HitCount %d; want [1000], 1000", f.Hits, f.HitCount())
	}
	if got := f.DecayedHits(5000, d); got != 0 {
		t.Errorf("DecayedHits after full expiry = %v, want 0", got)
	}

	// An expired prefix shorter than half the slice stays: copying the
	// tail on every prune would cost more than the memory it frees.
	g := p.Frag(interval.New(10, 19))
	for tm := 6000.0; tm < 6010; tm++ {
		g.RecordHit(tm)
	}
	p.PruneExpired(6103.5, d, nil, true) // 6000..6003 expired: 4 of 10
	if len(g.Hits) != 10 {
		t.Errorf("compacted a %d-of-10 expired prefix, want no compaction below half", 10-len(g.Hits))
	}
}

func TestPruneExpiredWithoutCompactKeepsHistory(t *testing.T) {
	d := Decay{TMax: 100}
	p := NewPartitionStat("v", "a", interval.New(0, 99))
	f := p.Frag(interval.New(0, 9))
	for tm := 1.0; tm <= 1000; tm++ {
		f.RecordHit(tm)
		p.PruneExpired(tm, d, nil, false)
	}
	if len(f.Hits) != 1000 || f.dropped != 0 {
		t.Errorf("compact=false retained %d hits (dropped %d), want all 1000", len(f.Hits), f.dropped)
	}
}

// compactedRegistry returns a registry holding one compacted and one
// uncompacted fragment, and the clock it was compacted at.
func compactedRegistry(t *testing.T) (*Registry, float64) {
	t.Helper()
	d := Decay{TMax: 100}
	r := NewRegistry(d)
	p := r.Partition("v", "a", interval.New(0, 999))
	hot := p.Frag(interval.New(0, 99))
	cold := p.Frag(interval.New(100, 199))
	cold.RecordHit(0.5)
	// Irregular timestamps, so a rebased prefix sum would round
	// differently from the original one.
	rng := rand.New(rand.NewSource(1))
	tnow := 1.0
	for ; tnow <= 400; tnow += 0.1 + rng.Float64()*2 {
		hot.RecordHit(tnow)
	}
	p.PruneExpired(tnow, d, func(interval.Interval) bool { return true }, true)
	if hot.dropped == 0 {
		t.Fatal("setup: hot fragment was not compacted")
	}
	return r, tnow
}

func TestSnapshotRestoreCompacted(t *testing.T) {
	r, tnow := compactedRegistry(t)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap RegistrySnap
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry(r.Decay)
	r2.Restore(&snap)

	p1, _ := r.LookupPartition("v", "a")
	p2, ok := r2.LookupPartition("v", "a")
	if !ok {
		t.Fatal("restored registry lost the partition")
	}
	f1, f2 := p1.Fragments(), p2.Fragments()
	if len(f1) != len(f2) {
		t.Fatalf("restored %d fragments, want %d", len(f2), len(f1))
	}
	for i := range f1 {
		if f1[i].HitCount() != f2[i].HitCount() {
			t.Errorf("%s: restored HitCount %d, want %d", f1[i].Iv, f2[i].HitCount(), f1[i].HitCount())
		}
		for _, at := range []float64{tnow, tnow + 1, tnow + 50, tnow + 500} {
			a, b := f1[i].DecayedHits(at, r.Decay), f2[i].DecayedHits(at, r.Decay)
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s at %v: restored DecayedHits %v, want %v", f1[i].Iv, at, b, a)
			}
		}
	}
	b2, err := json.Marshal(r2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b2) != string(b) {
		t.Errorf("re-snapshot differs:\n got %s\nwant %s", b2, b)
	}
}

func TestRestoreSnapshotWithoutCompactionFields(t *testing.T) {
	// A snapshot written before hit compaction existed.
	const old = `{"parts":[{"view":"v","attr":"a","dom":{"Lo":0,"Hi":999},` +
		`"frags":[{"iv":{"Lo":0,"Hi":99},"size":10,"hits":[1,2,3,250]}]}]}`
	var snap RegistrySnap
	if err := json.Unmarshal([]byte(old), &snap); err != nil {
		t.Fatal(err)
	}
	r := NewRegistry(Decay{TMax: 100})
	r.Restore(&snap)
	p, ok := r.LookupPartition("v", "a")
	if !ok {
		t.Fatal("partition not restored")
	}
	f, ok := p.Lookup(interval.New(0, 99))
	if !ok {
		t.Fatal("fragment not restored")
	}
	if f.HitCount() != 4 || f.dropped != 0 {
		t.Errorf("HitCount %d dropped %d, want 4 uncompacted hits", f.HitCount(), f.dropped)
	}
	if got, want := f.DecayedHits(300, r.Decay), 250.0/300; got != want {
		t.Errorf("DecayedHits = %v, want %v", got, want)
	}
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if s := string(b); strings.Contains(s, "dropped") || strings.Contains(s, "base") {
		t.Errorf("uncompacted snapshot carries compaction fields: %s", s)
	}
}
