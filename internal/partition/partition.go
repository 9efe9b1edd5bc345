// Package partition models materialized partitioned views: the set of
// fragments a view is currently split into (the paper's P(V, A)),
// refinement planning (split versus overlapping-fragment creation),
// fragment-size bounding, and size/cost estimation for fragment
// candidates (Section 7.2).
package partition

import (
	"fmt"
	"sort"

	"deepsea/internal/interval"
)

// Fragment is one materialized fragment of a partitioned view.
type Fragment struct {
	// Iv is the fragment's key interval.
	Iv interval.Interval
	// Path is the simulated-FS location of the fragment's file.
	Path string
	// Size is the fragment's stored size in bytes.
	Size int64
}

// Partition is the materialized partitioning of one view on one
// attribute. When Overlapping is false the fragments are pairwise
// disjoint (a horizontal partitioning, possibly with holes after
// evictions); when true, fragments may overlap (Definition 2).
type Partition struct {
	View        string
	Attr        string
	Dom         interval.Interval
	Overlapping bool

	frags []Fragment // sorted by (Lo, Hi)
}

// New returns an empty partition for view.attr over the given domain.
func New(view, attr string, dom interval.Interval, overlapping bool) *Partition {
	return &Partition{View: view, Attr: attr, Dom: dom, Overlapping: overlapping}
}

// Add inserts a fragment, keeping the fragment list sorted. Adding a
// fragment with an interval that already exists replaces it.
func (p *Partition) Add(f Fragment) {
	for i := range p.frags {
		if p.frags[i].Iv == f.Iv {
			p.frags[i] = f
			return
		}
	}
	p.frags = append(p.frags, f)
	sort.Slice(p.frags, func(i, j int) bool {
		if p.frags[i].Iv.Lo != p.frags[j].Iv.Lo {
			return p.frags[i].Iv.Lo < p.frags[j].Iv.Lo
		}
		return p.frags[i].Iv.Hi < p.frags[j].Iv.Hi
	})
}

// Remove deletes the fragment with exactly the given interval and
// reports whether it was present.
func (p *Partition) Remove(iv interval.Interval) bool {
	for i := range p.frags {
		if p.frags[i].Iv == iv {
			p.frags = append(p.frags[:i], p.frags[i+1:]...)
			return true
		}
	}
	return false
}

// Fragments returns the fragments in sorted order. The returned slice is
// shared; callers must not mutate it.
func (p *Partition) Fragments() []Fragment { return p.frags }

// NumFragments returns the fragment count.
func (p *Partition) NumFragments() int { return len(p.frags) }

// Lookup returns the fragment with exactly the given interval.
func (p *Partition) Lookup(iv interval.Interval) (Fragment, bool) {
	for _, f := range p.frags {
		if f.Iv == iv {
			return f, true
		}
	}
	return Fragment{}, false
}

// Intervals returns the fragments' intervals as a set.
func (p *Partition) Intervals() interval.Set {
	out := make(interval.Set, len(p.frags))
	for i, f := range p.frags {
		out[i] = f.Iv
	}
	return out
}

// TotalSize returns the summed fragment sizes.
func (p *Partition) TotalSize() int64 {
	var s int64
	for _, f := range p.frags {
		s += f.Size
	}
	return s
}

// Overlapping fragments of the given interval, in sorted order.
func (p *Partition) OverlappingFragments(iv interval.Interval) []Fragment {
	var out []Fragment
	for _, f := range p.frags {
		if f.Iv.Overlaps(iv) {
			out = append(out, f)
		}
	}
	return out
}

// Cover runs the paper's Algorithm 2 over the partition's fragments and
// returns the chosen fragments, the clipped read range each contributes,
// and the uncovered gaps of want (empty when the cover is complete).
//
// When the fragments cover want only partially (evictions leave holes),
// each maximal covered segment is covered independently, so fragments
// after a hole still contribute and only the holes become remainder
// work.
func (p *Partition) Cover(want interval.Interval) (frags []Fragment, reads []interval.Interval, gaps []interval.Interval) {
	ivs := p.Intervals()
	gaps = ivs.Gaps(want)
	for _, segment := range complementWithin(want, gaps) {
		idx, segReads, full := interval.ClippedCover(segment, ivs)
		if !full {
			// Gaps() and GreedyCover disagree only if the interval
			// algebra is broken; fail loudly.
			panic(fmt.Sprintf("partition: segment %s reported covered but greedy cover failed", segment))
		}
		for k, i := range idx {
			frags = append(frags, p.frags[i])
			reads = append(reads, segReads[k])
		}
	}
	return frags, reads, gaps
}

// Covers reports whether the fragments' union contains want, i.e.
// whether Cover(want) would return no gaps. It walks the sorted
// fragments once and allocates nothing.
func (p *Partition) Covers(want interval.Interval) bool {
	next := want.Lo // first point not yet covered
	for _, f := range p.frags {
		if next > want.Hi {
			break
		}
		if f.Iv.Hi < next {
			continue
		}
		if f.Iv.Lo > next {
			return false
		}
		next = f.Iv.Hi + 1
	}
	return next > want.Hi
}

// complementWithin returns the maximal subintervals of want not occupied
// by the (sorted, disjoint) gaps.
func complementWithin(want interval.Interval, gaps []interval.Interval) []interval.Interval {
	var out []interval.Interval
	next := want.Lo
	for _, g := range gaps {
		if g.Lo > next {
			out = append(out, interval.Interval{Lo: next, Hi: g.Lo - 1})
		}
		next = g.Hi + 1
	}
	if next <= want.Hi {
		out = append(out, interval.Interval{Lo: next, Hi: want.Hi})
	}
	return out
}

// Validate checks the partition's structural invariant: fragments lie
// within the domain and, for non-overlapping partitions, are pairwise
// disjoint. (Coverage of the whole domain is not required: evictions
// leave holes that remainder queries fill.)
func (p *Partition) Validate() error {
	for _, f := range p.frags {
		if !p.Dom.ContainsInterval(f.Iv) {
			return fmt.Errorf("partition %s.%s: fragment %s outside domain %s",
				p.View, p.Attr, f.Iv, p.Dom)
		}
	}
	if !p.Overlapping && !p.Intervals().Disjoint() {
		return fmt.Errorf("partition %s.%s: overlapping fragments in horizontal partition",
			p.View, p.Attr)
	}
	return nil
}

// Refinement is a plan for materializing one candidate fragment.
type Refinement struct {
	// Read lists existing fragments that must be read to extract the new
	// fragments' rows.
	Read []Fragment
	// Write lists the new fragment intervals to materialize.
	Write []interval.Interval
	// Drop lists existing fragments to delete afterwards (horizontal
	// splits replace their parents; overlapping refinements drop
	// nothing).
	Drop []Fragment
}

// PlanRefinement plans the materialization of candidate fragment cand.
//
// In horizontal mode every existing fragment overlapping cand is split at
// cand's end points; the parents are read and dropped and all pieces are
// written, preserving disjointness. In overlapping mode only cand itself
// is written (its rows extracted from the overlapping parents, which are
// kept) — the paper's trick for avoiding the write of large cold
// fragments (Section 3, Example 2).
func (p *Partition) PlanRefinement(cand interval.Interval) Refinement {
	parents := p.OverlappingFragments(cand)
	if p.Overlapping {
		// Read only a greedy cover of the candidate (Algorithm 2), not
		// every overlapping fragment: as overlapping fragments
		// accumulate, reading all of them would grow quadratically.
		ivs := make(interval.Set, len(parents))
		for i, f := range parents {
			ivs[i] = f.Iv
		}
		if idx, full := interval.GreedyCover(cand, ivs); full {
			cover := make([]Fragment, 0, len(idx))
			seen := make(map[int]bool, len(idx))
			for _, i := range idx {
				if !seen[i] {
					seen[i] = true
					cover = append(cover, parents[i])
				}
			}
			parents = cover
		}
		return Refinement{Read: parents, Write: []interval.Interval{cand}}
	}
	var ref Refinement
	for _, parent := range parents {
		pieces := parent.Iv.SplitAt(cand.Lo, cand.Hi+1)
		if len(pieces) == 1 {
			// cand covers this parent entirely; nothing to split.
			continue
		}
		ref.Read = append(ref.Read, parent)
		ref.Drop = append(ref.Drop, parent)
		ref.Write = append(ref.Write, pieces...)
	}
	return ref
}

// EstimateCandidateSize implements the paper's S(Icand) estimate: the
// relative interval overlap with existing fragments times their sizes,
// assuming values are uniformly distributed within each fragment. The
// paper's formula sums over *all* overlapping fragments, ignoring their
// mutual overlap; for overlapping partitionings that double-counts and
// compounds across refinements, so this implementation sums over a
// greedy cover of the candidate instead (equivalent for horizontal
// partitions, stable for overlapping ones).
func (p *Partition) EstimateCandidateSize(cand interval.Interval) int64 {
	frags, reads, _ := p.Cover(cand)
	var size float64
	for k, f := range frags {
		size += float64(reads[k].Len()) / float64(f.Iv.Len()) * float64(f.Size)
	}
	return int64(size)
}

// EstimateCandidateCost implements the paper's COST(Icand) estimate:
// wwrite · S(Icand) + Σ wread · S(I) over fragments overlapping the
// candidate. wread and wwrite are seconds per byte.
func (p *Partition) EstimateCandidateCost(cand interval.Interval, wread, wwrite float64) float64 {
	cost := wwrite * float64(p.EstimateCandidateSize(cand))
	for _, f := range p.OverlappingFragments(cand) {
		cost += wread * float64(f.Size)
	}
	return cost
}

// Bound splits intervals whose estimated size exceeds maxBytes into
// equal-length pieces, implementing Section 9's fragment-size bounding.
// sizeOf estimates an interval's stored size. The piece count is capped
// so no piece's estimated size falls below minBytes (the file-system
// block size in the paper). maxBytes <= 0 disables the upper bound.
func Bound(ivs []interval.Interval, sizeOf func(interval.Interval) int64, maxBytes, minBytes int64) []interval.Interval {
	if maxBytes <= 0 {
		return ivs
	}
	var out []interval.Interval
	for _, iv := range ivs {
		size := sizeOf(iv)
		if size <= maxBytes {
			out = append(out, iv)
			continue
		}
		n := (size + maxBytes - 1) / maxBytes
		if minBytes > 0 {
			if nmax := size / minBytes; n > nmax {
				n = nmax
			}
		}
		if n > iv.Len() {
			n = iv.Len()
		}
		if n <= 1 {
			out = append(out, iv)
			continue
		}
		out = append(out, interval.EquiDepth(iv, int(n))...)
	}
	return out
}
