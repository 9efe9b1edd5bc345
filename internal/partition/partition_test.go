package partition

import (
	"math/rand"
	"testing"

	"deepsea/internal/interval"
)

func newTestPartition(overlapping bool) *Partition {
	p := New("v", "a", interval.New(0, 100), overlapping)
	p.Add(Fragment{Iv: interval.New(0, 40), Path: "f0", Size: 400})
	p.Add(Fragment{Iv: interval.New(41, 70), Path: "f1", Size: 300})
	p.Add(Fragment{Iv: interval.New(71, 100), Path: "f2", Size: 300})
	return p
}

func TestAddKeepsSorted(t *testing.T) {
	p := New("v", "a", interval.New(0, 100), false)
	p.Add(Fragment{Iv: interval.New(50, 100), Path: "b"})
	p.Add(Fragment{Iv: interval.New(0, 49), Path: "a"})
	fs := p.Fragments()
	if fs[0].Path != "a" || fs[1].Path != "b" {
		t.Errorf("fragments not sorted: %v", fs)
	}
}

func TestAddReplacesSameInterval(t *testing.T) {
	p := New("v", "a", interval.New(0, 100), false)
	p.Add(Fragment{Iv: interval.New(0, 49), Path: "a", Size: 1})
	p.Add(Fragment{Iv: interval.New(0, 49), Path: "a2", Size: 2})
	if p.NumFragments() != 1 {
		t.Fatalf("fragments = %d, want 1", p.NumFragments())
	}
	f, _ := p.Lookup(interval.New(0, 49))
	if f.Path != "a2" || f.Size != 2 {
		t.Errorf("replacement failed: %+v", f)
	}
}

func TestRemove(t *testing.T) {
	p := newTestPartition(false)
	if !p.Remove(interval.New(41, 70)) {
		t.Fatal("Remove returned false for present fragment")
	}
	if p.Remove(interval.New(41, 70)) {
		t.Fatal("Remove returned true for absent fragment")
	}
	if p.NumFragments() != 2 {
		t.Errorf("fragments = %d, want 2", p.NumFragments())
	}
}

func TestTotalSize(t *testing.T) {
	p := newTestPartition(false)
	if got := p.TotalSize(); got != 1000 {
		t.Errorf("TotalSize = %d, want 1000", got)
	}
}

func TestCoverComplete(t *testing.T) {
	p := newTestPartition(false)
	frags, reads, gaps := p.Cover(interval.New(30, 80))
	if gaps != nil {
		t.Fatalf("unexpected gaps %v", gaps)
	}
	if len(frags) != 3 {
		t.Fatalf("cover uses %d fragments, want 3", len(frags))
	}
	next := int64(30)
	for _, r := range reads {
		if r.Lo != next {
			t.Fatalf("reads not contiguous: %v", reads)
		}
		next = r.Hi + 1
	}
	if next != 81 {
		t.Fatalf("reads end at %d, want 81", next)
	}
}

func TestCoverWithGaps(t *testing.T) {
	p := newTestPartition(false)
	p.Remove(interval.New(41, 70)) // evicted middle fragment
	frags, reads, gaps := p.Cover(interval.New(30, 80))
	if len(gaps) != 1 || gaps[0] != interval.New(41, 70) {
		t.Fatalf("gaps = %v, want [[41,70]]", gaps)
	}
	// Fragments on BOTH sides of the hole must still contribute.
	if len(frags) != 2 {
		t.Fatalf("frags = %v, want both sides of the hole", frags)
	}
	if reads[0] != interval.New(30, 40) || reads[1] != interval.New(71, 80) {
		t.Fatalf("reads = %v", reads)
	}
}

func TestValidate(t *testing.T) {
	p := newTestPartition(false)
	if err := p.Validate(); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	p.Add(Fragment{Iv: interval.New(35, 50), Path: "x"})
	if err := p.Validate(); err == nil {
		t.Fatal("overlap in horizontal partition not rejected")
	}
	po := newTestPartition(true)
	po.Add(Fragment{Iv: interval.New(35, 50), Path: "x"})
	if err := po.Validate(); err != nil {
		t.Fatalf("overlapping partition rejected: %v", err)
	}
}

func TestValidateOutOfDomain(t *testing.T) {
	p := New("v", "a", interval.New(0, 100), true)
	p.Add(Fragment{Iv: interval.New(90, 150), Path: "x"})
	if err := p.Validate(); err == nil {
		t.Fatal("fragment outside domain not rejected")
	}
}

func TestPlanRefinementHorizontalSplit(t *testing.T) {
	p := newTestPartition(false)
	// Candidate [30,50] overlaps [0,40] and [41,70]: both parents are
	// split, read and dropped.
	ref := p.PlanRefinement(interval.New(30, 50))
	if len(ref.Read) != 2 || len(ref.Drop) != 2 {
		t.Fatalf("refinement = %+v", ref)
	}
	// Pieces: [0,29],[30,40] from the first parent; [41,50],[51,70] from
	// the second.
	want := []interval.Interval{
		interval.New(0, 29), interval.New(30, 40),
		interval.New(41, 50), interval.New(51, 70),
	}
	if len(ref.Write) != len(want) {
		t.Fatalf("writes = %v, want %v", ref.Write, want)
	}
	for i := range want {
		if ref.Write[i] != want[i] {
			t.Fatalf("writes = %v, want %v", ref.Write, want)
		}
	}
}

func TestPlanRefinementParentFullyCovered(t *testing.T) {
	p := newTestPartition(false)
	// Candidate [0,40] coincides with an existing fragment: no work.
	ref := p.PlanRefinement(interval.New(0, 40))
	if len(ref.Write) != 0 || len(ref.Drop) != 0 {
		t.Errorf("refinement of existing boundary should be empty: %+v", ref)
	}
}

func TestPlanRefinementOverlapping(t *testing.T) {
	p := newTestPartition(true)
	ref := p.PlanRefinement(interval.New(30, 50))
	if len(ref.Drop) != 0 {
		t.Error("overlapping refinement must not drop parents")
	}
	if len(ref.Write) != 1 || ref.Write[0] != interval.New(30, 50) {
		t.Errorf("writes = %v, want only the candidate", ref.Write)
	}
	if len(ref.Read) != 2 {
		t.Errorf("reads = %v, want the two overlapping parents", ref.Read)
	}
}

// Overlapping refinement must write no more bytes than horizontal
// splitting — the core claim behind Figure 9.
func TestOverlappingWritesLessThanHorizontal(t *testing.T) {
	ph := newTestPartition(false)
	po := newTestPartition(true)
	cand := interval.New(30, 50)
	rh := ph.PlanRefinement(cand)
	ro := po.PlanRefinement(cand)
	bytesOf := func(p *Partition, ivs []interval.Interval) int64 {
		var b int64
		for _, iv := range ivs {
			b += p.EstimateCandidateSize(iv)
		}
		return b
	}
	if bytesOf(po, ro.Write) > bytesOf(ph, rh.Write) {
		t.Errorf("overlapping writes %d > horizontal writes %d",
			bytesOf(po, ro.Write), bytesOf(ph, rh.Write))
	}
}

func TestEstimateCandidateSize(t *testing.T) {
	p := newTestPartition(false)
	// Candidate [0,40] covers the whole first fragment: 400 bytes.
	if got := p.EstimateCandidateSize(interval.New(0, 40)); got != 400 {
		t.Errorf("size = %d, want 400", got)
	}
	// Candidate exactly half of [41,70] (length 30): 15/30 * 300 = 150.
	if got := p.EstimateCandidateSize(interval.New(41, 55)); got != 150 {
		t.Errorf("size = %d, want 150", got)
	}
	// Disjoint candidate: 0.
	if got := New("v", "a", interval.New(0, 100), false).EstimateCandidateSize(interval.New(0, 10)); got != 0 {
		t.Errorf("size over empty partition = %d, want 0", got)
	}
}

func TestEstimateCandidateCost(t *testing.T) {
	p := newTestPartition(false)
	// cand [41,55]: S(cand)=150, overlapping fragment [41,70] size 300.
	// cost = wwrite*150 + wread*300 = 2*150 + 1*300 = 600.
	got := p.EstimateCandidateCost(interval.New(41, 55), 1, 2)
	if got != 600 {
		t.Errorf("cost = %g, want 600", got)
	}
}

func TestBound(t *testing.T) {
	sizeOf := func(iv interval.Interval) int64 { return iv.Len() * 10 }
	ivs := []interval.Interval{interval.New(0, 99), interval.New(100, 109)}
	// maxBytes 400 => first interval (1000 bytes) split into 3 pieces.
	out := Bound(ivs, sizeOf, 400, 0)
	if len(out) != 4 {
		t.Fatalf("Bound produced %d intervals, want 4: %v", len(out), out)
	}
	if !interval.Set(out[:3]).IsHorizontalPartition(interval.New(0, 99)) {
		t.Errorf("split pieces do not partition the source: %v", out[:3])
	}
	if out[3] != interval.New(100, 109) {
		t.Errorf("small interval modified: %v", out[3])
	}
}

func TestBoundRespectsMinBytes(t *testing.T) {
	sizeOf := func(iv interval.Interval) int64 { return iv.Len() * 10 }
	// 1000 bytes, maxBytes 100 would want 10 pieces, but minBytes 250
	// caps at 4 pieces.
	out := Bound([]interval.Interval{interval.New(0, 99)}, sizeOf, 100, 250)
	if len(out) != 4 {
		t.Fatalf("Bound produced %d intervals, want 4: %v", len(out), out)
	}
}

func TestBoundDisabled(t *testing.T) {
	ivs := []interval.Interval{interval.New(0, 99)}
	out := Bound(ivs, func(interval.Interval) int64 { return 1 << 40 }, 0, 0)
	if len(out) != 1 {
		t.Errorf("disabled bound split anyway: %v", out)
	}
}

func TestBoundTinyDomain(t *testing.T) {
	// A 3-point interval cannot split into more than 3 pieces.
	sizeOf := func(iv interval.Interval) int64 { return 1000 }
	out := Bound([]interval.Interval{interval.New(0, 2)}, sizeOf, 10, 0)
	if len(out) != 3 {
		t.Fatalf("Bound produced %d intervals, want 3: %v", len(out), out)
	}
}

func TestCoversMatchesCover(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 500; trial++ {
		overlapping := trial%2 == 1
		p := New("v", "a", interval.New(0, 999), overlapping)
		next := int64(0)
		for next <= 999 {
			hi := min(next+rng.Int63n(200), 999)
			if rng.Intn(4) != 0 { // leave some holes
				p.Add(Fragment{Iv: interval.New(next, hi), Size: 1})
			}
			if overlapping && rng.Intn(3) == 0 {
				lo := rng.Int63n(1000)
				p.Add(Fragment{Iv: interval.New(lo, min(lo+rng.Int63n(300), 999)), Size: 1})
			}
			next = hi + 1
		}
		for q := 0; q < 20; q++ {
			lo := rng.Int63n(1100) - 50
			want := interval.New(lo, lo+rng.Int63n(400))
			_, _, gaps := p.Cover(want)
			if got := p.Covers(want); got != (len(gaps) == 0) {
				t.Fatalf("trial %d: Covers(%s) = %v, Cover gaps %v over %v", trial, want, got, gaps, p.Intervals())
			}
		}
	}
	p := New("v", "a", interval.New(0, 99), false)
	p.Add(Fragment{Iv: interval.New(0, 49)})
	p.Add(Fragment{Iv: interval.New(50, 99)})
	if n := testing.AllocsPerRun(10, func() { p.Covers(interval.New(10, 90)) }); n != 0 {
		t.Errorf("Covers allocated %v times per run, want 0", n)
	}
}
