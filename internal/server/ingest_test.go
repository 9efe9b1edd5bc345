package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"deepsea"
	"deepsea/internal/ingest"
	"deepsea/internal/leakcheck"
	"deepsea/internal/workload"
)

// appendBatch builds a deterministic batch of new store_sales rows whose
// foreign keys hit the generated dimensions (item keys from the
// dataset's key set, customer/store keys in range), so every appended
// row joins exactly once in every template.
func appendBatch(d *workload.Data, seed int64, n int) [][]any {
	rng := rand.New(rand.NewSource(7000 + seed))
	nCust := len(d.Tables["customer"].Rows)
	nStore := len(d.Tables["store"].Rows)
	rows := make([][]any, n)
	for i := range rows {
		rows[i] = []any{
			d.ItemKeys[rng.Intn(len(d.ItemKeys))],
			int64(rng.Intn(nCust)),
			int64(rng.Intn(nStore)),
			int64(rng.Intn(20) + 1),
			float64(rng.Intn(50000)) / 100,
			int64(rng.Intn(3651)),
			"",
		}
	}
	return rows
}

func postAppend(t testing.TB, url string, sp ingest.Spec) (int, AppendResponse, string) {
	t.Helper()
	body, err := json.Marshal(sp)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e errResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, AppendResponse{}, e.Error
	}
	var ar AppendResponse
	if err := json.NewDecoder(resp.Body).Decode(&ar); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ar, ""
}

// TestAppendEndpoint: the basic ingest round trip. Rows land, the row
// count grows, subsequent queries reflect the appended rows exactly
// (matching a reference system that appended the same rows), and the
// health surfaces report the traffic.
func TestAppendEndpoint(t *testing.T) {
	leakcheck.Check(t)
	data := workload.Generate(1, 1, nil)
	sys := newTestSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	// Warm a view so the append exercises incremental refresh.
	warm := QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkHi}
	for i := 0; i < 2; i++ {
		if code, _, _ := postQuery(t, ts.URL, warm); code != http.StatusOK {
			t.Fatalf("warm query status %d", code)
		}
	}

	before := int64(len(data.Tables["store_sales"].Rows))
	batch := appendBatch(data, 1, 120)
	code, ar, msg := postAppend(t, ts.URL, ingest.Spec{Table: "store_sales", Rows: batch})
	if code != http.StatusOK {
		t.Fatalf("append status %d: %s", code, msg)
	}
	if ar.Table != "store_sales" || ar.NewCount != before+120 {
		t.Fatalf("append response = %+v, want table store_sales count %d", ar, before+120)
	}

	// The post-append answer matches a reference system that held the
	// appended rows from the same call sequence.
	ref := newTestSystem(t)
	if _, err := ref.Append("store_sales", batch); err != nil {
		t.Fatal(err)
	}
	for _, sp := range []QuerySpec{
		warm,
		{Template: "Q7", Lo: 1000, Hi: 300000},
		{Template: "Q16", Lo: workload.ItemSkLo, Hi: workload.ItemSkHi},
	} {
		codeQ, qr, _ := postQuery(t, ts.URL, sp)
		if codeQ != http.StatusOK {
			t.Fatalf("query status %d", codeQ)
		}
		q, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ref.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonRows(qr.Rows), canonRows(rep.Rows()); got != want {
			t.Errorf("%s post-append rows diverge from reference:\n got %s\nwant %s", sp.Template, got, want)
		}
	}

	var hz struct {
		IngestAppends    uint64 `json:"ingest_appends"`
		IngestRows       uint64 `json:"ingest_rows"`
		IngestStaleViews int    `json:"ingest_stale_views"`
	}
	crashGet(t, ts.Listener.Addr().String(), "/healthz", &hz)
	if hz.IngestAppends == 0 || hz.IngestRows != 120 {
		t.Errorf("healthz ingest counters = %+v, want 1 append / 120 rows", hz)
	}
	if hz.IngestStaleViews != 0 {
		t.Errorf("healthz reports %d stale views after inline refresh", hz.IngestStaleViews)
	}
	var sz struct {
		Serving ServingStats `json:"serving"`
	}
	crashGet(t, ts.Listener.Addr().String(), "/statz", &sz)
	if sz.Serving.Appends != 1 || sz.Serving.AppendBatches == 0 {
		t.Errorf("statz serving append counters = %+v", sz.Serving)
	}
}

// TestAppendIdempotencyToken: a repeated Spec.Token replays the first
// request's result without landing the rows twice — the property that
// makes coordinator and client retries safe — while a fresh token (or
// no token) appends normally.
func TestAppendIdempotencyToken(t *testing.T) {
	leakcheck.Check(t)
	data := workload.Generate(1, 1, nil)
	sys := newTestSystem(t)
	_, ts := newTestServer(t, sys, Config{})
	before := int64(len(data.Tables["store_sales"].Rows))

	batch := appendBatch(data, 11, 120)
	sp := ingest.Spec{Table: "store_sales", Rows: batch, Token: "tok-1"}
	code, first, msg := postAppend(t, ts.URL, sp)
	if code != http.StatusOK || first.Deduped {
		t.Fatalf("first tokened append: status %d deduped %v: %s", code, first.Deduped, msg)
	}
	if first.NewCount != before+120 {
		t.Fatalf("first append count = %d, want %d", first.NewCount, before+120)
	}

	// Exact retry: same token, same rows. The response replays the first
	// result and nothing lands.
	code, again, msg := postAppend(t, ts.URL, sp)
	if code != http.StatusOK {
		t.Fatalf("retried append: status %d: %s", code, msg)
	}
	if !again.Deduped {
		t.Fatal("retried token not marked deduped")
	}
	if again.NewCount != first.NewCount {
		t.Fatalf("dedup replayed count %d, want first result %d", again.NewCount, first.NewCount)
	}
	if is := sys.IngestStats(); is.AppendedRows != 120 {
		t.Fatalf("rows landed twice under one token: %d appended", is.AppendedRows)
	}

	// A different token with the same rows is a new batch.
	code, second, msg := postAppend(t, ts.URL, ingest.Spec{Table: "store_sales", Rows: batch, Token: "tok-2"})
	if code != http.StatusOK || second.Deduped {
		t.Fatalf("fresh-token append: status %d deduped %v: %s", code, second.Deduped, msg)
	}
	if second.NewCount != before+240 {
		t.Fatalf("fresh-token count = %d, want %d", second.NewCount, before+240)
	}

	// Tokenless appends never dedup against each other.
	for i := 0; i < 2; i++ {
		code, out, msg := postAppend(t, ts.URL, ingest.Spec{Table: "store_sales", Rows: appendBatch(data, 12, 50)})
		if code != http.StatusOK || out.Deduped {
			t.Fatalf("tokenless append %d: status %d deduped %v: %s", i, code, out.Deduped, msg)
		}
	}
	if is := sys.IngestStats(); is.AppendedRows != 340 {
		t.Fatalf("appended rows = %d, want 340", is.AppendedRows)
	}

	var sz struct {
		Serving ServingStats `json:"serving"`
	}
	crashGet(t, ts.Listener.Addr().String(), "/statz", &sz)
	if sz.Serving.AppendDedups != 1 {
		t.Errorf("statz append_dedups = %d, want 1", sz.Serving.AppendDedups)
	}
}

// TestAppendBadRequests: malformed specs 400, wrong method 405 — and
// nothing lands.
func TestAppendBadRequests(t *testing.T) {
	leakcheck.Check(t)
	sys := newTestSystem(t)
	_, ts := newTestServer(t, sys, Config{})

	for _, tc := range []struct {
		name string
		body string
	}{
		{"no table", `{"rows":[[1]]}`},
		{"no rows", `{"table":"store_sales"}`},
		{"ragged rows", `{"table":"store_sales","rows":[[1,2],[1]]}`},
		{"unknown table", `{"table":"nope","rows":[[1]]}`},
		{"wrong width", `{"table":"store_sales","rows":[[1,2]]}`},
		{"wrong type", `{"table":"store_sales","rows":[[true,1,1,1,1.0,1,""]]}`},
	} {
		resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/append")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /append status %d, want 405", resp.StatusCode)
	}
	if is := sys.IngestStats(); is.Appends != 0 {
		t.Errorf("bad requests appended rows: %+v", is)
	}
}

// TestAppendOwnership: a sharded server 409s appends carrying a stale
// epoch or routing keys outside its owned range, names its true
// ownership in the response, and accepts replicated-dimension appends
// (no routing key) regardless of range.
func TestAppendOwnership(t *testing.T) {
	leakcheck.Check(t)
	data := workload.Generate(1, 1, nil)
	sys := newTestSystem(t)
	sys.SetOwnedRange(0, 200000, 3)
	_, ts := newTestServer(t, sys, Config{})

	inRange := [][]any{{int64(150), int64(0), int64(0), int64(1), 9.5, int64(0), ""}}
	outRange := [][]any{{int64(350000), int64(0), int64(0), int64(1), 9.5, int64(0), ""}}

	if code, _, msg := postAppend(t, ts.URL, ingest.Spec{Table: "store_sales", Rows: inRange, Epoch: 3}); code != http.StatusOK {
		t.Fatalf("in-range append status %d: %s", code, msg)
	}
	if code, _, _ := postAppend(t, ts.URL, ingest.Spec{Table: "store_sales", Rows: inRange, Epoch: 2}); code != http.StatusConflict {
		t.Errorf("stale-epoch append status %d, want 409", code)
	}
	body, _ := json.Marshal(ingest.Spec{Table: "store_sales", Rows: outRange, Epoch: 3})
	resp, err := http.Post(ts.URL+"/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var re rangeErrResponse
	if err := json.NewDecoder(resp.Body).Decode(&re); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("out-of-range append status %d, want 409", resp.StatusCode)
	}
	if re.OwnedLo != 0 || re.OwnedHi != 200000 || re.RangeEpoch != 3 {
		t.Errorf("409 body does not name true ownership: %+v", re)
	}
	// customer has no routing key: any shard accepts it.
	nCust := int64(len(data.Tables["customer"].Rows))
	custRow := [][]any{{nCust, int64(40), 50000.0, ""}}
	if code, _, msg := postAppend(t, ts.URL, ingest.Spec{Table: "customer", Rows: custRow, Epoch: 3}); code != http.StatusOK {
		t.Errorf("dimension append status %d: %s", code, msg)
	}
}

// TestAppendQueryConcurrentSmoke is the ingest smoke: an append burst
// concurrent with a query burst, no errors, group commit coalescing
// some of the batches, and the settled state identical to a reference
// system that appended the same row multiset.
func TestAppendQueryConcurrentSmoke(t *testing.T) {
	leakcheck.Check(t)
	data := workload.Generate(1, 1, nil)
	sys := newTestSystem(t)
	_, ts := newTestServer(t, sys, Config{MaxInFlight: 32})

	const (
		writers = 6
		batches = 5
		perB    = 40
		readers = 10
	)
	var wg sync.WaitGroup
	var appendErrs, queryErrs atomic.Uint64
	for wi := 0; wi < writers; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				rows := appendBatch(data, int64(100+wi*batches+b), perB)
				code, _, msg := postAppend(t, ts.URL, ingest.Spec{Table: "store_sales", Rows: rows})
				if code != http.StatusOK {
					t.Errorf("writer %d batch %d: status %d: %s", wi, b, code, msg)
					appendErrs.Add(1)
				}
			}
		}(wi)
	}
	for ri := 0; ri < readers; ri++ {
		wg.Add(1)
		go func(ri int) {
			defer wg.Done()
			for _, sp := range testSpecs(8) {
				code, _, _ := postQuery(t, ts.URL, sp)
				if code != http.StatusOK {
					t.Errorf("reader %d: status %d", ri, code)
					queryErrs.Add(1)
				}
			}
		}(ri)
	}
	wg.Wait()
	if appendErrs.Load() > 0 || queryErrs.Load() > 0 {
		t.Fatalf("%d append / %d query errors under concurrent load", appendErrs.Load(), queryErrs.Load())
	}

	is := sys.IngestStats()
	if is.AppendedRows != writers*batches*perB {
		t.Errorf("appended rows = %d, want %d", is.AppendedRows, writers*batches*perB)
	}
	if is.StaleViews != 0 {
		t.Errorf("%d views still stale after the burst settled", is.StaleViews)
	}

	// The settled answer matches a reference holding the same row
	// multiset (order across concurrent batches differs; the exact
	// aggregation pipeline makes results order-independent).
	ref := newTestSystem(t)
	for wi := 0; wi < writers; wi++ {
		for b := 0; b < batches; b++ {
			if _, err := ref.Append("store_sales", appendBatch(data, int64(100+wi*batches+b), perB)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, sp := range testSpecs(6) {
		code, qr, _ := postQuery(t, ts.URL, sp)
		if code != http.StatusOK {
			t.Fatalf("settled query status %d", code)
		}
		q, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ref.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := canonRows(qr.Rows), canonRows(rep.Rows()); got != want {
			t.Errorf("settled %s rows diverge from reference:\n got %s\nwant %s", sp.Template, got, want)
		}
	}
}

// TestCrashRecoveryMidIngest is the ingest chaos acceptance: a serving
// process takes a sequential append stream, is SIGKILLed mid-stream (no
// drain, no final snapshot), and restarts over the same journal. The
// survivor must hold exactly the batches that were acknowledged as a
// prefix, and answer queries byte-identically to a reference system
// holding that same prefix.
func TestCrashRecoveryMidIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	dir := t.TempDir()
	data := workload.Generate(1, 1, nil)
	base := int64(len(data.Tables["store_sales"].Rows))
	const perB = 50

	cmd1, addr1 := startCrashHelper(t, dir)
	// Warm one template so a view exists to refresh incrementally.
	crashPost(t, addr1, QuerySpec{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkHi})

	// Sequential append stream: one POST at a time, so acknowledged
	// batches form a journal prefix in send order. The stream runs until
	// the SIGKILL severs the connection.
	stop := make(chan struct{})
	streamDone := make(chan int)
	var ackedSoFar atomic.Int64
	go func() {
		sent := 0
		for {
			select {
			case <-stop:
				streamDone <- sent
				return
			default:
			}
			rows := appendBatch(data, int64(500+sent), perB)
			body, _ := json.Marshal(ingest.Spec{Table: "store_sales", Rows: rows})
			resp, err := http.Post("http://"+addr1+"/append", "application/json", bytes.NewReader(body))
			if err != nil {
				// Connection severed by the kill: batch not acknowledged.
				streamDone <- sent
				return
			}
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if !ok {
				streamDone <- sent
				return
			}
			sent++
			ackedSoFar.Store(int64(sent))
		}
	}()

	// Let some batches be acknowledged, then kill -9 mid-stream. (The
	// server's own append count can run one batch ahead of the client's
	// acknowledgements, so it is not the signal to wait for.)
	deadline := time.Now().Add(30 * time.Second)
	for ackedSoFar.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("append stream stalled at %d acknowledged batches", ackedSoFar.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL helper: %v", err)
	}
	_ = cmd1.Wait()
	close(stop)
	acked := <-streamDone
	if acked < 3 {
		t.Fatalf("only %d batches acknowledged before the kill", acked)
	}

	cmd2, addr2 := startCrashHelper(t, dir)
	defer func() {
		_ = cmd2.Process.Kill()
		_ = cmd2.Wait()
	}()

	var statz struct {
		Health deepsea.Health `json:"health"`
	}
	crashGet(t, addr2, "/statz", &statz)
	if !statz.Health.Recovered || statz.Health.RecoveryError != "" {
		t.Fatalf("restart did not recover: %+v", statz.Health)
	}

	// Count survivors with a full-domain aggregate: every store_sales row
	// joins exactly one item, so the count sum equals the table's row
	// count. Acknowledged batches must all survive; at most one further
	// unacknowledged batch may have been journaled before the kill.
	total := func(addr string) int64 {
		qr := crashPost(t, addr, QuerySpec{
			Scan: "store_sales",
			Join: []JoinSpec{{Table: "item", Left: "ss_item_sk", Right: "i_item_sk"}},
			Select: []string{
				"ss_item_sk", "i_category_id", "ss_sales_price", "ss_sold_date_sk"},
			Where:   []WhereSpec{{Col: "ss_item_sk", Lo: workload.ItemSkLo, Hi: workload.ItemSkHi}},
			GroupBy: []string{"i_category_id"},
			Aggs:    []AggJSON{{Func: "count", As: "n"}},
		})
		var n int64
		for _, row := range qr.Rows {
			v, ok := row[len(row)-1].(float64)
			if !ok {
				t.Fatalf("count column = %#v", row[len(row)-1])
			}
			n += int64(v)
		}
		return n
	}
	got := total(addr2)
	k := (got - base) / perB
	if (got-base)%perB != 0 {
		t.Fatalf("recovered count %d is not base %d plus whole batches of %d", got, base, perB)
	}
	if k < int64(acked) || k > int64(acked)+1 {
		t.Fatalf("recovered %d batches, acknowledged %d: acknowledged appends lost or extras invented", k, acked)
	}

	// Byte-identical serving: a reference system holding exactly those k
	// batches answers every template the same way.
	ref := newTestSystem(t)
	for b := int64(0); b < k; b++ {
		if _, err := ref.Append("store_sales", appendBatch(data, 500+b, perB)); err != nil {
			t.Fatal(err)
		}
	}
	for i, sp := range []QuerySpec{
		{Template: "Q1", Lo: workload.ItemSkLo, Hi: workload.ItemSkHi},
		{Template: "Q7", Lo: 5000, Hi: 250000},
		{Template: "Q16", Lo: 0, Hi: 399999},
	} {
		qr := crashPost(t, addr2, sp)
		q, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ref.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		if gotR, want := canonRows(qr.Rows), canonRows(rep.Rows()); gotR != want {
			t.Errorf("post-crash query %d diverges from reference prefix:\n got %s\nwant %s", i, gotR, want)
		}
	}
}
