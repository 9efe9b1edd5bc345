package core

import (
	"fmt"
	"sort"

	"deepsea/internal/engine"
	"deepsea/internal/faults"
	"deepsea/internal/interval"
	"deepsea/internal/partition"
	"deepsea/internal/query"
	"deepsea/internal/relation"
)

// materializeView stores a captured candidate view according to the
// configured partitioning mode and returns the charged cost. captured is
// nil in estimate-only mode; sizes then come from statistics. When the
// selection admitted only some initial fragments (sv.pieces), only those
// are written — partial materialization under a tight pool.
//
// When the defining node did not execute (the query was rewritten) but a
// complete partition of the view already exists, the rows are
// reconstructed from that partition instead — this is how a view gains a
// partition on a second attribute: re-partitioning the fragments the
// rewriting just read (usedByQuery charges the reads only when the
// executed plan did not already pay for them).
func (d *DeepSea) materializeView(sv selectedView, captured *relation.Table, usedByQuery bool, planCounts map[string]int64) (engine.Cost, bool, error) {
	vc := sv.vc
	// One Materialize-site injection decision per view materialization
	// attempt; a fault here fails the attempt before anything is written.
	if err := d.faults.Check(faults.Materialize, vc.id); err != nil {
		return engine.Cost{}, false, fmt.Errorf("core: materialize view %s: %w", shortID(vc.id), err)
	}
	vs := d.Stats.View(vc.id)
	var reconstructCost engine.Cost
	fromFiles := false
	if captured == nil && d.Cfg.ExecuteRows {
		var ok bool
		captured, reconstructCost, ok = d.reconstructView(vc.id, usedByQuery)
		if !ok {
			return engine.Cost{}, false, nil // no row source this round
		}
		fromFiles = true
	}
	viewBytes := vs.Size
	if captured != nil {
		viewBytes = captured.Bytes()
	}

	mode := d.Cfg.Partition
	attr, dom := sv.attr, sv.dom
	if mode != PartitionNone && attr == "" {
		// No usable partition key: fall back to unpartitioned storage.
		mode = PartitionNone
	}

	var cost engine.Cost
	d.Pool.Ensure(vc.id, vc.schema)
	switch mode {
	case PartitionNone:
		path := d.viewPath(vc.id)
		var err error
		if captured != nil {
			cost, err = d.Eng.WriteMaterialized(path, captured)
		} else {
			cost, err = d.Eng.WriteMaterializedSize(path, viewBytes)
		}
		if err != nil {
			return cost, false, fmt.Errorf("core: materialize view %s: %w", shortID(vc.id), err)
		}
		d.Pool.SetViewFile(vc.id, path, viewBytes)

	default:
		ivs, err := d.initialPartitioning(vc, attr, dom, viewBytes, captured, sv.pieces)
		if err != nil {
			return engine.Cost{}, false, err
		}
		// Partial materialization may extend an existing partition.
		part := d.Pool.EnsurePartition(vc.id, attr, dom, d.Cfg.overlapping())
		for _, piece := range ivs {
			// Write only the parts of the piece not already covered by
			// existing fragments: coalesced proposals can span a
			// materialized fragment plus a hole, and a horizontal
			// partition must stay disjoint.
			writes := []interval.Interval{piece}
			if part.NumFragments() > 0 {
				writes = part.Intervals().Gaps(piece)
			}
			for _, iv := range writes {
				fragBytes, fragTbl := d.fragmentData(captured, attr, iv, viewBytes, dom)
				path := d.fragPath(vc.id, attr, iv)
				var wc engine.Cost
				var err error
				if fragTbl != nil {
					wc, err = d.Eng.WriteMaterialized(path, fragTbl)
				} else {
					wc, err = d.Eng.WriteMaterializedSize(path, fragBytes)
				}
				if err != nil {
					// Fragments from earlier iterations are already
					// registered in the pool and stay: a partial
					// partition is valid (gaps fall back to remainder
					// plans), and the FS and pool still agree.
					return cost, false, fmt.Errorf("core: materialize view %s: %w", shortID(vc.id), err)
				}
				cost.Add(wc)
				d.Pool.AddFragment(vc.id, attr, partition.Fragment{Iv: iv, Path: path, Size: fragBytes})
				fs := d.Stats.Partition(vc.id, attr, dom).Frag(iv)
				fs.Size = fragBytes
				fs.Measured = fragTbl != nil
				d.journalFStat(vc.id, attr, fs)
			}
		}
	}

	cost.Add(reconstructCost)
	vs.Size = viewBytes
	// vs.Cost keeps the recompute estimate (Section 7.1's COST(V));
	// the charged materialization overhead is returned to the caller.
	vs.Measured = captured != nil
	d.journalVStat(vs)
	// Register the view's ingest consistency point: captured content is
	// exact at the proposing query's planning-time base counts (or
	// registers stale if an append raced the execution); reconstructed
	// content keeps the existing metadata's consistency point.
	d.registerIngestView(vc.id, vc.node, planCounts, fromFiles)
	return cost, true, nil
}

// reconstructView rebuilds a view's rows from a partition that fully
// covers its domain (clipped so overlapping fragments contribute each
// range once). free marks reads already paid for by the executed query.
func (d *DeepSea) reconstructView(id string, free bool) (*relation.Table, engine.Cost, bool) {
	pv := d.Pool.View(id)
	if pv == nil {
		return nil, engine.Cost{}, false
	}
	for _, attr := range pv.PartAttrs() {
		part := pv.Parts[attr]
		frags, reads, gaps := part.Cover(part.Dom)
		if len(gaps) > 0 || len(frags) == 0 {
			continue
		}
		out := relation.NewTable(pv.Schema)
		ai := pv.Schema.ColIndex(part.Attr)
		if ai < 0 {
			continue
		}
		var cost engine.Cost
		ok := true
		for i, f := range frags {
			tbl := d.Eng.Materialized(f.Path)
			if tbl == nil {
				ok = false
				break
			}
			for _, row := range tbl.Rows {
				if reads[i].Contains(row[ai].I) {
					out.Append(row)
				}
			}
			if !free {
				sec, tasks := d.Eng.CostModel().ReadCost(f.Size, 1)
				cost.Add(engine.Cost{Seconds: sec, ReadBytes: f.Size, MapTasks: tasks})
			}
		}
		if ok {
			return out, cost, true
		}
	}
	return nil, engine.Cost{}, false
}

// partitionKey picks the partition attribute for a new view: the ordered
// attribute with tracked partition statistics (selection evidence),
// preferring the one with the most recorded hits. It returns ok=false if
// the view has no such attribute.
func (d *DeepSea) partitionKey(vc viewCandidate) (string, interval.Interval, bool) {
	type cand struct {
		attr string
		dom  interval.Interval
		hits int
	}
	var cands []cand
	for _, pstat := range d.Stats.Partitions(vc.id) {
		if i := vc.schema.ColIndex(pstat.Attr); i < 0 || !vc.schema.Cols[i].Ordered {
			continue
		}
		n := 0
		for _, f := range pstat.Fragments() {
			n += f.HitCount()
		}
		cands = append(cands, cand{attr: pstat.Attr, dom: pstat.Dom, hits: n})
	}
	if len(cands) == 0 {
		return "", interval.Interval{}, false
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].hits != cands[j].hits {
			return cands[i].hits > cands[j].hits
		}
		return cands[i].attr < cands[j].attr
	})
	return cands[0].attr, cands[0].dom, true
}

// initialPartitioning derives the fragment intervals for a view being
// materialized: equi-depth boundaries for the E-k baseline, or the
// workload-derived candidate partitioning (PSTAT) for the adaptive
// modes, bounded per Section 9 (split fragments above φ·S(V), never
// below the block size). A non-nil pieces list restricts the adaptive
// partitioning to the selection-admitted fragments.
func (d *DeepSea) initialPartitioning(vc viewCandidate, attr string, dom interval.Interval, viewBytes int64, captured *relation.Table, pieces []interval.Interval) ([]interval.Interval, error) {
	if d.Cfg.Partition == PartitionEquiDepth {
		k := d.Cfg.EquiDepthK
		if k < 1 {
			return nil, fmt.Errorf("core: equi-depth partitioning requires EquiDepthK >= 1")
		}
		if captured != nil {
			return equiDepthFromData(captured, attr, k, dom), nil
		}
		return interval.EquiDepth(dom, k), nil
	}

	pstat := d.Stats.Partition(vc.id, attr, dom)
	var ivs []interval.Interval
	if pieces != nil {
		ivs = append(ivs, pieces...)
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].Lo < ivs[j].Lo })
	} else {
		ivs = []interval.Interval(pstat.Cand.Clone())
	}
	if len(ivs) == 0 {
		ivs = []interval.Interval{dom}
	}

	// Guard fragments: carve medium-sized fragments out of the cold
	// pieces bordering hot (query-derived) pieces. The paper's
	// fragment-correlation analysis says exactly this — domain parts
	// close to hot spots have a high chance of being hit — and its
	// Figure 6 run produces six fragments from a single observed query,
	// which a bare three-way split cannot explain. Guards keep the
	// inevitable spill of drifting selection ranges off the huge cold
	// fragments.
	if !d.Cfg.NoGuards {
		isHot := func(iv interval.Interval) bool {
			f, ok := pstat.Lookup(iv)
			return ok && f.HitCount() > 0
		}
		ivs = guardSplit(ivs, isHot, 2)
	}

	sizeOf := d.fragmentSizer(captured, attr, viewBytes, dom)
	// Lower bound: coalesce runs of too-small fragments (block size).
	ivs = coalesceMin(ivs, sizeOf, d.Cfg.minFragBytes())
	// Upper bound: split fragments above φ·S(V).
	if d.Cfg.MaxFragFraction > 0 {
		maxBytes := int64(d.Cfg.MaxFragFraction * float64(viewBytes))
		ivs = partition.Bound(ivs, sizeOf, maxBytes, d.Cfg.minFragBytes())
	}
	return ivs, nil
}

// guardSplit cuts guard fragments of guardFactor times the hot piece's
// width out of cold pieces adjacent to hot pieces. ivs must be sorted and
// disjoint; the result partitions the same region.
func guardSplit(ivs []interval.Interval, isHot func(interval.Interval) bool, guardFactor int64) []interval.Interval {
	var out []interval.Interval
	for i, iv := range ivs {
		if isHot(iv) {
			out = append(out, iv)
			continue
		}
		var cuts []int64
		if i > 0 && isHot(ivs[i-1]) && ivs[i-1].Hi+1 == iv.Lo {
			cuts = append(cuts, iv.Lo+ivs[i-1].Len()*guardFactor)
		}
		if i+1 < len(ivs) && isHot(ivs[i+1]) && iv.Hi+1 == ivs[i+1].Lo {
			cuts = append(cuts, iv.Hi+1-ivs[i+1].Len()*guardFactor)
		}
		out = append(out, iv.SplitAt(cuts...)...)
	}
	return out
}

// fragmentSizer returns a fast interval-size estimator: in exec mode it
// sorts the captured partition-key column once and answers each interval
// by binary search; in estimate-only mode it falls back to the uniform
// share. (fragmentData would build a whole table per probe — quadratic
// when bounding/coalescing probe many intervals.)
func (d *DeepSea) fragmentSizer(captured *relation.Table, attr string, viewBytes int64, dom interval.Interval) func(interval.Interval) int64 {
	if captured == nil {
		return func(iv interval.Interval) int64 {
			return int64(float64(viewBytes) * float64(iv.Len()) / float64(dom.Len()))
		}
	}
	ai := captured.Schema.ColIndex(attr)
	vals := make([]int64, len(captured.Rows))
	for i, row := range captured.Rows {
		vals[i] = row[ai].I
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	width := captured.Schema.RowWidth()
	return func(iv interval.Interval) int64 {
		lo := sort.Search(len(vals), func(i int) bool { return vals[i] >= iv.Lo })
		hi := sort.Search(len(vals), func(i int) bool { return vals[i] > iv.Hi })
		return int64(hi-lo) * width
	}
}

// fragmentData returns the byte size of a fragment and, in exec mode, its
// row data. In estimate-only mode the size is the uniform share of the
// view's bytes.
func (d *DeepSea) fragmentData(captured *relation.Table, attr string, iv interval.Interval, viewBytes int64, dom interval.Interval) (int64, *relation.Table) {
	if captured == nil {
		return int64(float64(viewBytes) * float64(iv.Len()) / float64(dom.Len())), nil
	}
	ai := captured.Schema.ColIndex(attr)
	frag := relation.NewTable(captured.Schema)
	for _, row := range captured.Rows {
		if iv.Contains(row[ai].I) {
			frag.Append(row)
		}
	}
	return frag.Bytes(), frag
}

// equiDepthFromData computes k fragment intervals holding approximately
// equal row counts (true equi-depth boundaries from the data's quantiles).
func equiDepthFromData(tbl *relation.Table, attr string, k int, dom interval.Interval) []interval.Interval {
	ai := tbl.Schema.ColIndex(attr)
	vals := make([]int64, 0, len(tbl.Rows))
	for _, row := range tbl.Rows {
		vals = append(vals, row[ai].I)
	}
	if len(vals) == 0 || k <= 1 {
		return []interval.Interval{dom}
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	cuts := make([]int64, 0, k-1)
	prev := dom.Lo
	for i := 1; i < k; i++ {
		q := vals[i*len(vals)/k]
		if q > prev && q <= dom.Hi {
			cuts = append(cuts, q)
			prev = q
		}
	}
	return dom.SplitAt(cuts...)
}

// coalesceMin merges adjacent intervals until each merged run reaches
// minBytes (the block-size lower bound for fragments). The last run may
// stay below the bound if the whole domain does.
func coalesceMin(ivs []interval.Interval, sizeOf func(interval.Interval) int64, minBytes int64) []interval.Interval {
	if minBytes <= 0 || len(ivs) == 0 {
		return ivs
	}
	var out []interval.Interval
	cur := ivs[0]
	curBytes := sizeOf(cur)
	for _, iv := range ivs[1:] {
		if curBytes < minBytes && iv.Lo == cur.Hi+1 {
			cur = interval.Interval{Lo: cur.Lo, Hi: iv.Hi}
			curBytes = sizeOf(cur)
			continue
		}
		out = append(out, cur)
		cur = iv
		curBytes = sizeOf(iv)
	}
	out = append(out, cur)
	// A too-small final run merges backwards.
	if len(out) >= 2 {
		last := out[len(out)-1]
		if sizeOf(last) < minBytes && out[len(out)-2].Hi+1 == last.Lo {
			out[len(out)-2] = interval.Interval{Lo: out[len(out)-2].Lo, Hi: last.Hi}
			out = out[:len(out)-1]
		}
	}
	return out
}

// materializeFrag materializes one selected fragment candidate: either
// from a captured remainder (gap recovery) or by a refinement plan over
// the existing fragments (split or overlapping creation). It returns the
// charged cost and the intervals actually written.
func (d *DeepSea) materializeFrag(fc fragCandidate, captured map[query.Node]*relation.Table, planCounts map[string]int64) (engine.Cost, []interval.Interval, error) {
	// One Materialize-site decision per fragment-materialization attempt,
	// keyed by the view so a view's backoff covers its fragments too.
	if err := d.faults.Check(faults.Materialize, fc.viewID); err != nil {
		return engine.Cost{}, nil, fmt.Errorf("core: materialize fragment %s.%s%s: %w", shortID(fc.viewID), fc.attr, fc.iv, err)
	}
	pv := d.Pool.View(fc.viewID)
	if pv == nil {
		return engine.Cost{}, nil, fmt.Errorf("core: fragment candidate for unknown pool view %s", shortID(fc.viewID))
	}
	part := pv.Parts[fc.attr]
	if part == nil {
		return engine.Cost{}, nil, fmt.Errorf("core: fragment candidate for missing partition %s.%s", shortID(fc.viewID), fc.attr)
	}
	pstat := d.Stats.Partition(fc.viewID, fc.attr, part.Dom)

	var cost engine.Cost
	if fc.fromGap {
		// The captured gap rows were computed by a query planned at
		// planCounts; storing them is only consistent if the view's
		// marks certify exactly that point. Refinements below need no
		// guard — they rearrange file content already at the marks.
		if !d.ingestFragGuard(fc.viewID, planCounts) {
			return cost, nil, nil
		}
		// The remainder execution already computed the gap's rows;
		// only the write is charged.
		var tbl *relation.Table
		if d.Cfg.ExecuteRows {
			tbl = captured[fc.gapNode]
			if tbl == nil {
				return engine.Cost{}, nil, fmt.Errorf("core: remainder output for gap %s not captured", fc.iv)
			}
		}
		path := d.fragPath(fc.viewID, fc.attr, fc.iv)
		var bytes int64
		var wc engine.Cost
		var err error
		if tbl != nil {
			wc, err = d.Eng.WriteMaterialized(path, tbl)
			bytes = tbl.Bytes()
		} else {
			wc, err = d.Eng.WriteMaterializedSize(path, fc.estSize)
			bytes = fc.estSize
		}
		if err != nil {
			return cost, nil, fmt.Errorf("core: materialize fragment %s.%s%s: %w", shortID(fc.viewID), fc.attr, fc.iv, err)
		}
		cost.Add(wc)
		d.Pool.AddFragment(fc.viewID, fc.attr, partition.Fragment{Iv: fc.iv, Path: path, Size: bytes})
		fs := pstat.Frag(fc.iv)
		fs.Size = bytes
		fs.Measured = tbl != nil
		d.journalFStat(fc.viewID, fc.attr, fs)
		return cost, []interval.Interval{fc.iv}, nil
	}

	ref := part.PlanRefinement(fc.iv)
	if len(ref.Write) == 0 {
		return cost, nil, nil // candidate coincides with existing boundaries
	}
	// A horizontal refinement replaces its parents. If a concurrent
	// execution still reads one of them, skip the whole refinement (a
	// partial one would leave the partition overlapping); a later query
	// can retry once the reader finishes.
	for _, f := range ref.Drop {
		if d.isPinned(f.Path) {
			return cost, nil, nil
		}
	}
	// The candidate was derived against the pool as it stood during
	// selection; a concurrent query may have evicted a parent since. If
	// the surviving parents no longer cover what would be written, skip
	// the refinement — the candidate regenerates on a later query.
	readIvs := make(interval.Set, len(ref.Read))
	for i, f := range ref.Read {
		readIvs[i] = f.Iv
	}
	for _, iv := range ref.Write {
		if _, _, full := interval.ClippedCover(iv, readIvs); !full {
			return cost, nil, nil
		}
	}

	// Read the parents. By-product refinements reuse the rows the
	// executed query already streamed past, so the reads are free —
	// the partition operator forks the stream into a file sink.
	parents := make([]*relation.Table, len(ref.Read))
	for i, f := range ref.Read {
		if fc.byproduct {
			parents[i] = d.Eng.Materialized(f.Path)
			continue
		}
		tbl, rc, err := d.Eng.ReadMaterialized(f.Path)
		if err != nil {
			return engine.Cost{}, nil, fmt.Errorf("core: refinement of %s.%s%s: %w", shortID(fc.viewID), fc.attr, fc.iv, err)
		}
		cost.Add(rc)
		parents[i] = tbl
	}

	// Write the new fragments. Pool registration happens after the loop
	// so size estimates keep seeing only the pre-refinement fragments.
	var written []interval.Interval
	var pending []partition.Fragment
	// undoPending deletes fragments written by this refinement but not
	// yet pool-registered; on a mid-loop write failure it restores the
	// FS/pool agreement (registration only happens after the loop).
	undoPending := func(pending []partition.Fragment) {
		for _, f := range pending {
			d.Eng.DeleteMaterialized(f.Path)
		}
	}
	for _, iv := range ref.Write {
		path := d.fragPath(fc.viewID, fc.attr, iv)
		var bytes int64
		var wc engine.Cost
		var werr error
		if d.Cfg.ExecuteRows {
			tbl, err := extractRows(parents, ref.Read, fc.attr, iv, pv.Schema)
			if err != nil {
				undoPending(pending)
				return engine.Cost{}, nil, err
			}
			wc, werr = d.Eng.WriteMaterialized(path, tbl)
			bytes = tbl.Bytes()
		} else {
			bytes = part.EstimateCandidateSize(iv)
			wc, werr = d.Eng.WriteMaterializedSize(path, bytes)
		}
		if werr != nil {
			undoPending(pending)
			return cost, nil, fmt.Errorf("core: refinement of %s.%s%s: %w", shortID(fc.viewID), fc.attr, fc.iv, werr)
		}
		cost.Add(wc)
		fs := pstat.Frag(iv)
		fs.Size = bytes
		fs.Measured = d.Cfg.ExecuteRows
		d.journalFStat(fc.viewID, fc.attr, fs)
		written = append(written, iv)
		pending = append(pending, partition.Fragment{Iv: iv, Path: path, Size: bytes})
	}
	for _, f := range pending {
		d.Pool.AddFragment(fc.viewID, fc.attr, f)
	}

	// Drop replaced parents (horizontal splits).
	for _, f := range ref.Drop {
		d.Eng.DeleteMaterialized(f.Path)
		d.Pool.RemoveFragment(fc.viewID, fc.attr, f.Iv)
	}
	return cost, written, nil
}

// extractRows collects the rows of the new fragment interval from the
// parent fragments, reading each key subrange from exactly one parent so
// overlapping parents contribute no duplicates.
func extractRows(parents []*relation.Table, read []partition.Fragment, attr string, iv interval.Interval, schema relation.Schema) (*relation.Table, error) {
	ivs := make(interval.Set, len(read))
	for i, f := range read {
		ivs[i] = f.Iv
	}
	idx, clips, full := interval.ClippedCover(iv, ivs)
	if !full {
		return nil, fmt.Errorf("core: parents do not cover new fragment %s", iv)
	}
	out := relation.NewTable(schema)
	for k, pi := range idx {
		tbl := parents[pi]
		if tbl == nil {
			return nil, fmt.Errorf("core: parent fragment %s has no rows in exec mode", read[pi].Iv)
		}
		ai := tbl.Schema.ColIndex(attr)
		for _, row := range tbl.Rows {
			if clips[k].Contains(row[ai].I) {
				out.Append(row)
			}
		}
	}
	return out, nil
}
