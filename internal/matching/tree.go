// Package matching implements DeepSea's view and partition matching
// (Section 8): a filter-tree index over view signatures, enumeration of
// rewritings of a query using (partitioned) views, fragment-cover
// construction via Algorithm 2, and remainder-plan generation for
// partially covered selection ranges.
package matching

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"deepsea/internal/relation"
	"deepsea/internal/signature"
)

// Entry is one indexed view: its identity, signature, and output schema.
type Entry struct {
	// ID is the view's signature key.
	ID string
	// Sig is the view's signature.
	Sig *signature.Signature
	// Schema is the view's output schema (with domain metadata).
	Schema relation.Schema
}

// treeState is one immutable epoch of the index. Readers load it with a
// single atomic pointer read and then work on maps and slices that no
// writer will ever mutate again — a reader can never observe a
// partially built tree, whatever the interleaving.
type treeState struct {
	families map[string][]*Entry
	byID     map[string]*Entry
}

// FilterTree indexes view signatures for fast candidate pruning. The
// original filter tree of Goldstein and Larson is a multi-level trie
// keyed by signature parts (relations, then join predicates, ...); since
// our sufficient condition requires those parts to be *equal* between
// view and query, the trie collapses to a hash on the combined family key
// — same pruning power, simpler structure. Detailed range/residual/
// output checks run only within the matching family.
//
// Concurrency: the index is epoch-published. The current state lives
// behind an atomic pointer to an immutable treeState; every lookup is a
// single lock-free load. Writers (candidate registration under the
// planning lock, the maintenance committer) serialize on writeMu, build
// a copy-on-write successor state, and publish it atomically. Entries
// themselves are immutable once added.
type FilterTree struct {
	writeMu sync.Mutex
	state   atomic.Pointer[treeState]
}

// NewFilterTree returns an empty index.
func NewFilterTree() *FilterTree {
	ft := &FilterTree{}
	ft.state.Store(&treeState{
		families: make(map[string][]*Entry),
		byID:     make(map[string]*Entry),
	})
	return ft
}

// Add indexes a view entry: copy-on-write of the affected family, then
// an atomic publish. Adding an already-indexed ID is a no-op.
func (ft *FilterTree) Add(e *Entry) {
	ft.writeMu.Lock()
	defer ft.writeMu.Unlock()
	cur := ft.state.Load()
	if _, ok := cur.byID[e.ID]; ok {
		return
	}
	next := &treeState{
		families: make(map[string][]*Entry, len(cur.families)+1),
		byID:     make(map[string]*Entry, len(cur.byID)+1),
	}
	for k, v := range cur.families {
		next.families[k] = v // published slices are immutable; share them
	}
	for k, v := range cur.byID {
		next.byID[k] = v
	}
	next.byID[e.ID] = e
	famKey := e.Sig.FamilyKey()
	if members := cur.families[famKey]; len(members) > 0 {
		shareFamily(e, members[0])
	}
	fam := make([]*Entry, 0, len(cur.families[famKey])+1)
	fam = append(fam, cur.families[famKey]...)
	fam = append(fam, e)
	sort.Slice(fam, func(i, j int) bool { return fam[i].ID < fam[j].ID })
	next.families[famKey] = fam
	ft.state.Store(next)
}

// shareFamily points e at the slices of family member m that equal its
// own. A family's views differ mostly in their ranges, so the index
// then keeps one copy of their relations, joins, grouping, aggregates,
// outputs and schema however many views it tracks. Signatures and
// schemas are not mutated once built, which makes the sharing safe;
// empty slices are left alone so nil stays nil.
func shareFamily(e, m *Entry) {
	s, o := e.Sig, m.Sig
	for _, f := range [][2]*[]string{
		{&s.Relations, &o.Relations},
		{&s.JoinPairs, &o.JoinPairs},
		{&s.GroupBy, &o.GroupBy},
		{&s.Aggs, &o.Aggs},
		{&s.Output, &o.Output},
	} {
		if len(*f[0]) > 0 && slices.Equal(*f[0], *f[1]) {
			*f[0] = *f[1]
		}
	}
	if sameSchema(e.Schema, m.Schema) {
		e.Schema = m.Schema
	}
	if sameSchema(s.Schema(), o.Schema()) {
		s.SetSchema(o.Schema())
	}
}

func sameSchema(a, b relation.Schema) bool {
	return len(a.Cols) > 0 && a.Name == b.Name && slices.Equal(a.Cols, b.Cols)
}

// Lookup returns the entry with the given ID. Lock-free.
func (ft *FilterTree) Lookup(id string) (*Entry, bool) {
	e, ok := ft.state.Load().byID[id]
	return e, ok
}

// Len returns the number of indexed views. Lock-free.
func (ft *FilterTree) Len() int {
	return len(ft.state.Load().byID)
}

// Entries returns every indexed entry, sorted by ID — the persistence
// boundary walks this to snapshot the index. Lock-free and consistent:
// all entries come from one published epoch.
func (ft *FilterTree) Entries() []*Entry {
	st := ft.state.Load()
	out := make([]*Entry, 0, len(st.byID))
	for _, e := range st.byID {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Candidates returns the entries whose family matches the query
// signature — the survivors of the index's pruning, still subject to the
// detailed sufficient condition. Lock-free. The returned slice is a
// copy, so callers may reorder or extend it freely.
func (ft *FilterTree) Candidates(q *signature.Signature) []*Entry {
	return append([]*Entry(nil), ft.state.Load().families[q.FamilyKey()]...)
}
