package main

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/datastore"
	"deepsea/internal/relation"
	"deepsea/internal/workload"
)

// inputBytes renders a workload's generated inputs for one seed.
func inputBytes(t *testing.T, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	put := func(v any) {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	tables := func(d map[string]*relation.Table) {
		names := make([]string, 0, len(d))
		for n := range d {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			put(d[n])
		}
	}

	tables(sdssData(replayGB, seed).Tables)
	put(sdssQueries(replayQueries, workload.AllTemplates, replayTraceSeed))

	sv := newServeInputs(2 * time.Second)
	put(sv.hot)
	put(sv.cold)
	for c := 0; c < serveConns; c++ {
		next := sv.connKeys(seed, c)
		keys := make([]int, 500)
		for i := range keys {
			keys[i] = next()
		}
		put(keys)
	}

	in := newIngestInputs(seed)
	tables(in.data.Tables)
	for op := 0; op < 3*ingestCycle; op++ {
		if isAppend(op) {
			put(in.batch(op))
		} else {
			put(in.query(op))
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputBytes(t, 7), inputBytes(t, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from seed 7 differ")
	}
	if bytes.Equal(a, inputBytes(t, 8)) {
		t.Fatal("seeds 7 and 8 generate the same inputs")
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so sorting matters
		}
		return s
	}
	if v, err := percentile(samples(1000), 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 samples beyond", v, err)
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and should be refused")
	}
	if v, err := percentile(samples(100), 90); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(samples(99), 90); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and should be refused")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Fatal("p50 of no samples should be refused")
	}
}

func TestTracedStoreForwards(t *testing.T) {
	inner, err := deepsea.OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer inner.Close()
	tr := newTracer()
	var cur current
	cur.set(1, tr.open("ingest.append_handler", 0, 1))
	s := newTracedStore(inner, tr, &cur)

	rows := relation.NewTable(relation.Schema{Name: "t", Cols: []relation.Column{{Name: "a", Type: relation.Int}}})
	rows.Append(relation.Row{relation.IntVal(42)})
	recs := []*datastore.Record{
		{Op: "put_file", Path: "v/1", Rows: rows},
		{Op: "hit", View: "v", T: 3},
		{Op: "append_rows", Rows: rows, Size: 7},
	}
	for _, r := range recs {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	group := []*datastore.Record{{Op: "use", View: "v"}, {Op: "clock", T: 9}}
	if err := s.AppendGroup(group); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	snap, tail, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Fatalf("unexpected snapshot of %d bytes", len(snap))
	}
	want := []string{"put_file", "hit", "append_rows", "use", "clock"}
	if len(tail) != len(want) {
		t.Fatalf("Load returned %d records, want %d", len(tail), len(want))
	}
	for i, r := range tail {
		if r.Op != want[i] {
			t.Fatalf("record %d op %q, want %q", i, r.Op, want[i])
		}
	}
	if tail[2].Size != 7 || tail[0].Rows == nil || tail[0].Rows.Rows[0][0].I != 42 {
		t.Fatalf("records lost fields on the way through: %+v", tail)
	}

	c := s.counts()
	if c.records != uint64(len(want)) {
		t.Fatalf("counted %d records, want %d", c.records, len(want))
	}
	var total int64
	for _, b := range c.bytes {
		total += b
	}
	if st := s.Stats(); total != st.Bytes || st.Records != uint64(len(want)) {
		t.Fatalf("counted %d bytes, store wrote %d bytes in %d records", total, st.Bytes, st.Records)
	}
	if c.bytes["put_file"] <= c.bytes["hit"] || c.bytes[groupOp] == 0 {
		t.Fatalf("bytes by op look wrong: %v", c.bytes)
	}
	if got := len(tr.durByReq("datastore")); got != 1 {
		t.Fatalf("datastore spans belong to %d requests, want 1", got)
	}
}

func TestAnswerCheckCatchesOneAlteredRow(t *testing.T) {
	cols := []string{"i_category_id", "sales_cnt", "revenue"}
	rows := [][]any{
		{int64(1), int64(10), 12.5},
		{int64(2), int64(3), 7.25},
		{int64(3), int64(8), 100.0},
	}
	want, err := digest(cols, rows)
	if err != nil {
		t.Fatal(err)
	}
	// The same answer as it arrives over HTTP: numbers decoded as
	// float64, rows in another order.
	wire := [][]any{{3.0, 8.0, 100.0}, {1.0, 10.0, 12.5}, {2.0, 3.0, 7.25}}
	same, err := digest(cols, wire)
	if err != nil {
		t.Fatal(err)
	}
	wire[2][2] = 7.26
	altered, err := digest(cols, wire)
	if err != nil {
		t.Fatal(err)
	}
	recs := []clientRecord{{key: 0, digest: same}, {key: 0, digest: altered}, {key: 0, digest: same}}
	failed, wrong, err := checkAnswers(recs, func(int) (string, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if failed != 1 || wrong != 1 {
		t.Fatalf("failed %d wrong %d, want the one altered answer caught", failed, wrong)
	}
}

func TestSelfSumFollowsBlockingPath(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add("client", 0, 1, at(0), at(100))
	front := tr.add("shard.front", root, 1, at(10), at(90))
	slow := tr.add("shard.subrequest", front, 1, at(20), at(80))
	tr.add("shard.subrequest", front, 1, at(20), at(70))
	tr.add("server.handler", slow, 1, at(25), at(75))
	if e := tr.selfSumError(100*time.Millisecond, 1); e > 1e-9 {
		t.Fatalf("self times along the blocking path miss the wall time by %v", e)
	}
	if e := tr.selfSumError(90*time.Millisecond, 1); e < 0.1 {
		t.Fatalf("self times of a 100ms root match a 90ms wall (error %v)", e)
	}
}
