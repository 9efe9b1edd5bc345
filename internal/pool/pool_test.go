package pool

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"deepsea/internal/interval"
	"deepsea/internal/partition"
	"deepsea/internal/relation"
)

func testSchema() relation.Schema {
	return relation.Schema{Name: "v", Cols: []relation.Column{
		{Name: "a", Type: relation.Int, Ordered: true, Lo: 0, Hi: 100},
	}}
}

func TestEnsureAndRemove(t *testing.T) {
	p := New(1000)
	v := p.Ensure("v1", testSchema())
	if p.Ensure("v1", testSchema()) != v {
		t.Error("Ensure created a duplicate")
	}
	if !p.Has("v1") || p.Has("v2") {
		t.Error("Has misreports")
	}
	p.Remove("v1")
	if p.Has("v1") {
		t.Error("Remove failed")
	}
	if p.View("v1") != nil {
		t.Error("View returned removed entry")
	}
}

func TestTotalSize(t *testing.T) {
	p := New(0)
	v := p.Ensure("v1", testSchema())
	p.SetViewFile("v1", "v1/full", 100)
	p.EnsurePartition("v1", "a", interval.New(0, 100), false)
	p.AddFragment("v1", "a", partition.Fragment{Iv: interval.New(0, 50), Path: "f0", Size: 40})
	p.AddFragment("v1", "a", partition.Fragment{Iv: interval.New(51, 100), Path: "f1", Size: 60})
	if got := p.TotalSize(); got != 200 {
		t.Errorf("TotalSize = %d, want 200", got)
	}
	if got := v.TotalSize(); got != 200 {
		t.Errorf("View.TotalSize = %d, want 200", got)
	}
	if err := p.VerifySize(); err != nil {
		t.Error(err)
	}
}

func TestFits(t *testing.T) {
	p := New(150)
	p.Ensure("v1", testSchema())
	p.SetViewFile("v1", "v1/full", 100)
	if !p.Fits(50) {
		t.Error("Fits(50) = false, want true")
	}
	if p.Fits(51) {
		t.Error("Fits(51) = true, want false")
	}
	unlimited := New(0)
	if !unlimited.Fits(1 << 60) {
		t.Error("unlimited pool rejected bytes")
	}
}

func TestGC(t *testing.T) {
	p := New(0)
	p.Ensure("empty", testSchema())
	p.EnsurePartition("empty", "a", interval.New(0, 100), false)
	p.Ensure("full", testSchema())
	p.SetViewFile("full", "x", 10)
	p.GC()
	if p.Has("empty") {
		t.Error("GC kept empty view")
	}
	if !p.Has("full") {
		t.Error("GC removed non-empty view")
	}
	if err := p.VerifySize(); err != nil {
		t.Error(err)
	}
}

// TestIncrementalSizeMatchesWalk drives every mutation path and asserts
// the incremental counter against a full walk after each step — the
// regression test for replacing the per-Fits walk with the counter.
func TestIncrementalSizeMatchesWalk(t *testing.T) {
	p := New(0)
	check := func(step string, want int64) {
		t.Helper()
		if err := p.VerifySize(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if got := p.TotalSize(); got != want {
			t.Fatalf("%s: TotalSize = %d, want %d", step, got, want)
		}
	}

	p.Ensure("v1", testSchema())
	check("ensure", 0)

	p.SetViewFile("v1", "v1/full", 100)
	check("set file", 100)
	p.SetViewFile("v1", "v1/full", 70) // replacement adjusts by delta
	check("replace file", 70)

	p.EnsurePartition("v1", "a", interval.New(0, 100), true)
	p.AddFragment("v1", "a", partition.Fragment{Iv: interval.New(0, 50), Path: "f0", Size: 40})
	check("add fragment", 110)
	p.AddFragment("v1", "a", partition.Fragment{Iv: interval.New(0, 50), Path: "f0b", Size: 25})
	check("replace fragment", 95) // same interval replaces, not accumulates
	p.AddFragment("v1", "a", partition.Fragment{Iv: interval.New(51, 100), Path: "f1", Size: 60})
	check("second fragment", 155)

	if !p.RemoveFragment("v1", "a", interval.New(0, 50)) {
		t.Fatal("RemoveFragment reported missing fragment")
	}
	check("remove fragment", 130)
	if p.RemoveFragment("v1", "a", interval.New(0, 49)) {
		t.Error("RemoveFragment removed a fragment that was never added")
	}
	check("remove missing", 130)

	p.DropViewFile("v1")
	check("drop file", 60)

	p.Ensure("v2", testSchema())
	p.SetViewFile("v2", "v2/full", 1000)
	check("second view", 1060)
	p.Remove("v2")
	check("remove view", 60)

	p.GC()
	check("gc", 60)
}

func TestSelectGreedyRanksByValue(t *testing.T) {
	cands := []Candidate{
		{Kind: WholeView, ViewID: "low", Size: 10, Value: 1},
		{Kind: WholeView, ViewID: "high", Size: 10, Value: 100},
		{Kind: WholeView, ViewID: "mid", Size: 10, Value: 50},
	}
	keep, reject := SelectGreedy(cands, 20)
	if len(keep) != 2 || keep[0].ViewID != "high" || keep[1].ViewID != "mid" {
		t.Errorf("keep = %v", keep)
	}
	if len(reject) != 1 || reject[0].ViewID != "low" {
		t.Errorf("reject = %v", reject)
	}
}

func TestSelectGreedySkipsOversizedItems(t *testing.T) {
	// An item larger than the remaining space must not block lower-value
	// items that still fit (fragment values are size-independent, so a
	// huge cold fragment can outrank small hot ones).
	cands := []Candidate{
		{Kind: WholeView, ViewID: "a", Size: 10, Value: 100},
		{Kind: WholeView, ViewID: "blocker", Size: 1000, Value: 50},
		{Kind: WholeView, ViewID: "small", Size: 5, Value: 10},
	}
	keep, reject := SelectGreedy(cands, 100)
	if len(keep) != 2 || keep[0].ViewID != "a" || keep[1].ViewID != "small" {
		t.Errorf("keep = %v, want a then small", keep)
	}
	if len(reject) != 1 || reject[0].ViewID != "blocker" {
		t.Errorf("reject = %v", reject)
	}
}

func TestSelectGreedyUnlimited(t *testing.T) {
	cands := []Candidate{
		{Kind: WholeView, ViewID: "a", Size: 1 << 40, Value: 1},
		{Kind: WholeView, ViewID: "b", Size: 1 << 40, Value: 2},
	}
	keep, reject := SelectGreedy(cands, 0)
	if len(keep) != 2 || len(reject) != 0 {
		t.Errorf("unlimited selection dropped candidates: keep=%v reject=%v", keep, reject)
	}
}

func TestSelectGreedyTiePrefersInPool(t *testing.T) {
	cands := []Candidate{
		{Kind: WholeView, ViewID: "new", Size: 10, Value: 5},
		{Kind: WholeView, ViewID: "resident", Size: 10, Value: 5, InPool: true},
	}
	keep, _ := SelectGreedy(cands, 10)
	if len(keep) != 1 || keep[0].ViewID != "resident" {
		t.Errorf("keep = %v, want resident first", keep)
	}
}

func TestSelectGreedyDeterministic(t *testing.T) {
	cands := []Candidate{
		{Kind: Frag, ViewID: "v", Attr: "a", Iv: interval.New(0, 10), Size: 10, Value: 5},
		{Kind: Frag, ViewID: "v", Attr: "a", Iv: interval.New(11, 20), Size: 10, Value: 5},
	}
	k1, _ := SelectGreedy(cands, 10)
	k2, _ := SelectGreedy([]Candidate{cands[1], cands[0]}, 10)
	if k1[0].Key() != k2[0].Key() {
		t.Error("selection depends on input order")
	}
}

func TestCandidateKey(t *testing.T) {
	v := Candidate{Kind: WholeView, ViewID: "x"}
	f := Candidate{Kind: Frag, ViewID: "x", Attr: "a", Iv: interval.New(0, 5)}
	if v.Key() == f.Key() {
		t.Error("view and fragment keys collide")
	}
}

func TestPartAttrsSorted(t *testing.T) {
	v := &View{ID: "v", Parts: map[string]*partition.Partition{
		"zeta":  partition.New("v", "zeta", interval.New(0, 1), false),
		"alpha": partition.New("v", "alpha", interval.New(0, 1), false),
	}}
	got := v.PartAttrs()
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Errorf("PartAttrs = %v", got)
	}
}

// TestSelectGreedyMatchesStringKeyRanking pins the index sort and its
// allocation-free tie-break to a sort of candidate copies by the same
// rule with Key strings, over rounds full of value ties.
func TestSelectGreedyMatchesStringKeyRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		cands, smax := benchCandidates(1 + rng.Intn(80))
		for i := range cands {
			switch rng.Intn(4) {
			case 0: // ids that are prefixes of each other
				cands[i].ViewID = cands[i].ViewID[:1+rng.Intn(len(cands[i].ViewID))]
			case 1:
				cands[i].Iv = interval.New(-rng.Int63n(1000), rng.Int63n(100000))
			}
		}
		if trial%5 == 0 {
			smax = 0
		}
		ranked := append([]Candidate(nil), cands...)
		sort.SliceStable(ranked, func(i, j int) bool {
			a, b := ranked[i], ranked[j]
			if a.Value != b.Value {
				return a.Value > b.Value
			}
			if a.InPool != b.InPool {
				return a.InPool
			}
			return a.Key() < b.Key()
		})
		var wantKeep, wantReject []Candidate
		var used int64
		for _, c := range ranked {
			if smax > 0 && used+c.Size > smax {
				wantReject = append(wantReject, c)
				continue
			}
			used += c.Size
			wantKeep = append(wantKeep, c)
		}
		keep, reject := SelectGreedy(cands, smax)
		if !reflect.DeepEqual(keep, wantKeep) && (len(keep) > 0 || len(wantKeep) > 0) {
			t.Fatalf("trial %d: keep = %v, want %v", trial, keep, wantKeep)
		}
		if !reflect.DeepEqual(reject, wantReject) && (len(reject) > 0 || len(wantReject) > 0) {
			t.Fatalf("trial %d: reject = %v, want %v", trial, reject, wantReject)
		}
	}
}

func TestCandidateKeyFormat(t *testing.T) {
	f := Candidate{Kind: Frag, ViewID: "R{a}", Attr: "x", Iv: interval.New(-5, 12)}
	if got, want := f.Key(), fmt.Sprintf("frag:%s:%s:%s", f.ViewID, f.Attr, f.Iv); got != want {
		t.Errorf("fragment Key() = %q, want %q", got, want)
	}
	if got := (Candidate{Kind: WholeView, ViewID: "R{a}"}).Key(); got != "view:R{a}" {
		t.Errorf("view Key() = %q", got)
	}
}
