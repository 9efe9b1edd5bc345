package main

import (
	"sync"
	"time"

	"deepsea"
	"deepsea/internal/datastore"
)

// tracedStore wraps a shard's datastore: every call is forwarded, the
// journal writes are timed as "datastore" spans under the shard's open
// handler span, and the bytes each write adds to the journal are counted
// by record op. Writes are serialized through the wrapper so the byte
// count of each can be read from the store's own counters.
type tracedStore struct {
	deepsea.Datastore
	tr     *tracer
	parent *current

	mu      sync.Mutex
	busy    time.Duration
	records uint64
	bytes   map[string]int64
}

func newTracedStore(inner deepsea.Datastore, tr *tracer, parent *current) *tracedStore {
	return &tracedStore{Datastore: inner, tr: tr, parent: parent, bytes: make(map[string]int64)}
}

// groupOp is the byte bucket of a group write, whose bytes the store
// does not split by record.
const groupOp = "group"

func (s *tracedStore) Append(rec *datastore.Record) error {
	return s.write(rec.Op, 1, func() error { return s.Datastore.Append(rec) })
}

func (s *tracedStore) AppendGroup(recs []*datastore.Record) error {
	op := groupOp
	if len(recs) == 1 {
		op = recs[0].Op
	}
	return s.write(op, len(recs), func() error { return s.Datastore.AppendGroup(recs) })
}

func (s *tracedStore) write(op string, n int, f func() error) error {
	req, parent := s.parent.get()
	s.mu.Lock()
	defer s.mu.Unlock()
	before := s.Datastore.Stats().Bytes
	start := time.Now()
	err := f()
	end := time.Now()
	s.tr.add("datastore", parent, req, start, end)
	s.busy += end.Sub(start)
	s.records += uint64(n)
	s.bytes[op] += s.Datastore.Stats().Bytes - before
	return err
}

// WriteSnapshot is timed as busy time; a snapshot adds no journal bytes.
func (s *tracedStore) WriteSnapshot(data []byte) error {
	return s.write("snapshot", 0, func() error { return s.Datastore.WriteSnapshot(data) })
}

// storeCounts is a copy of the wrapper's counters.
type storeCounts struct {
	busy    time.Duration
	records uint64
	bytes   map[string]int64
}

func (s *tracedStore) counts() storeCounts {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := storeCounts{busy: s.busy, records: s.records, bytes: make(map[string]int64, len(s.bytes))}
	for k, v := range s.bytes {
		c.bytes[k] = v
	}
	return c
}

// resetCounts zeroes the counters, so set-up writes are not counted.
func (s *tracedStore) resetCounts() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.busy, s.records, s.bytes = 0, 0, make(map[string]int64)
}
