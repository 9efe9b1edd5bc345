package ingest

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDecodeSpecNormalizesNumbers(t *testing.T) {
	body := `{"table":"t","rows":[[1, 2.5, "x"],[9007199254740993, 3, "y"]]}`
	sp, err := DecodeSpec(bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	if sp.Rows[0][0] != int64(1) || sp.Rows[0][1] != 2.5 || sp.Rows[0][2] != "x" {
		t.Errorf("row 0 = %#v", sp.Rows[0])
	}
	// 2^53+1 survives only via UseNumber — a float64 round-trip would
	// corrupt it.
	if sp.Rows[1][0] != int64(9007199254740993) {
		t.Errorf("large int corrupted: %#v", sp.Rows[1][0])
	}
}

func TestSpecValidate(t *testing.T) {
	for _, bad := range []string{
		`{"rows":[[1]]}`,                   // no table
		`{"table":"t"}`,                    // no rows
		`{"table":"t","rows":[[1],[1,2]]}`, // ragged
	} {
		if _, err := DecodeSpec(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("spec %s decoded without error", bad)
		}
	}
}

func TestItemRange(t *testing.T) {
	sp := &Spec{Table: "t", Rows: [][]any{{int64(5), "a"}, {int64(2), "b"}, {int64(9), "c"}}}
	lo, hi, ok := sp.ItemRange(0)
	if !ok || lo != 2 || hi != 9 {
		t.Errorf("ItemRange = %d,%d,%v", lo, hi, ok)
	}
	if _, _, ok := sp.ItemRange(1); ok {
		t.Error("string key column reported a range")
	}
}

func TestStreamRoundTrip(t *testing.T) {
	in := []*Spec{
		{Table: "a", Rows: [][]any{{int64(1), "x"}, {int64(2), "y"}}},
		{Table: "b", Rows: [][]any{{3.5}}},
	}
	var buf bytes.Buffer
	if err := WriteStream(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Table != "a" || len(out[0].Rows) != 2 || out[1].Rows[0][0] != 3.5 {
		t.Errorf("round trip = %#v", out)
	}
	if out[0].Rows[1][0] != int64(2) {
		t.Errorf("int corrupted in round trip: %#v", out[0].Rows[1][0])
	}
}

func TestCoalescerGroupsConcurrentAppends(t *testing.T) {
	var flushes atomic.Int64
	c := NewCoalescer(1<<20, 20*time.Millisecond, func(table string, rows [][]any) (int, error) {
		flushes.Add(1)
		return len(rows), nil
	})
	defer c.Close()
	const n = 16
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Add("t", [][]any{{int64(i)}})
			if err != nil {
				t.Error(err)
			}
			results[i] = got
		}(i)
	}
	wg.Wait()
	// All adds that landed in one batch saw the same total; the batch
	// count must be far below the add count.
	appends, batches := c.Stats()
	if appends != n {
		t.Errorf("appends = %d, want %d", appends, n)
	}
	if batches == 0 || batches > n {
		t.Errorf("batches = %d", batches)
	}
	total := 0
	seen := map[int]bool{}
	for _, r := range results {
		if !seen[r] {
			seen[r] = true
			total += r
		}
	}
	if total != n {
		t.Errorf("distinct batch sizes sum to %d, want %d", total, n)
	}
}

func TestCoalescerMaxRowsFlushesEarly(t *testing.T) {
	c := NewCoalescer(4, time.Hour, func(table string, rows [][]any) (int, error) {
		return len(rows), nil
	})
	defer c.Close()
	done := make(chan int, 1)
	go func() {
		got, _ := c.Add("t", [][]any{{int64(0)}, {int64(1)}, {int64(2)}, {int64(3)}})
		done <- got
	}()
	select {
	case got := <-done:
		if got != 4 {
			t.Errorf("batch size = %d, want 4", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("full batch did not flush before the linger deadline")
	}
}

func TestCoalescerFlushError(t *testing.T) {
	c := NewCoalescer[int](0, time.Millisecond, func(table string, rows [][]any) (int, error) {
		return 0, fmt.Errorf("boom")
	})
	defer c.Close()
	if _, err := c.Add("t", [][]any{{int64(1)}}); err == nil {
		t.Fatal("flush error not propagated")
	}
}

func TestCoalescerCloseFlushesPending(t *testing.T) {
	c := NewCoalescer(1<<20, time.Hour, func(table string, rows [][]any) (int, error) {
		return len(rows), nil
	})
	done := make(chan int, 1)
	go func() {
		got, _ := c.Add("t", [][]any{{int64(1)}})
		done <- got
	}()
	for {
		if a, _ := c.Stats(); a == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	select {
	case got := <-done:
		if got != 1 {
			t.Errorf("close-flushed batch size = %d", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not flush the pending batch")
	}
	if _, err := c.Add("t", nil); err == nil {
		t.Error("Add after Close succeeded")
	}
}
