// Package lock implements the concurrency-control substrate of the
// simulation: distributed strict two-phase locking with long read and write
// locks (one lock table per PE) and a central deadlock detection scheme that
// periodically builds the global waits-for graph and aborts a victim, as
// described in Section 4 of Rahm & Marek (VLDB '95).
package lock

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"dynlb/internal/sim"
)

// Mode is a lock mode.
type Mode int

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// TxnID identifies a transaction globally. IDs are assigned in start order,
// so a larger ID means a younger transaction (the deadlock victim choice).
type TxnID int64

// Key identifies a lockable object (a tuple or a partition).
type Key struct {
	Space int64
	Item  int64
}

// ErrDeadlock is returned from Lock when the requester was chosen as the
// deadlock victim; the caller must release all its locks and abort.
var ErrDeadlock = errors.New("lock: aborted as deadlock victim")

// Table is the lock table of one PE. It remembers a key only while some
// transaction holds or waits for it: an idle entry is deleted and recycled,
// so the table's size follows the live lock set, not every tuple ever
// locked. Once its free lists have filled, an uncontended Lock/ReleaseAll
// cycle allocates nothing.
type Table struct {
	k       *sim.Kernel
	name    string
	entries map[Key]*entry
	held    map[TxnID][]Key // keys each transaction holds

	freeEntries []*entry
	freeKeys    [][]Key

	waits, deadlocks int64
}

type entry struct {
	holders []holder // one X holder or one or more S holders
	queue   []*request
}

type holder struct {
	txn  TxnID
	mode Mode
}

type request struct {
	p       *sim.Proc
	txn     TxnID
	mode    Mode
	upgrade bool
	granted bool
	aborted bool
}

// NewTable creates an empty lock table.
func NewTable(k *sim.Kernel, name string) *Table {
	return &Table{
		k: k, name: name,
		entries: make(map[Key]*entry),
		held:    make(map[TxnID][]Key),
	}
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Waits returns the number of requests that had to block.
func (t *Table) Waits() int64 { return t.waits }

// Deadlocks returns the number of aborts issued by deadlock resolution.
func (t *Table) Deadlocks() int64 { return t.deadlocks }

// holding returns the index of txn among the holders, or -1.
func (e *entry) holding(txn TxnID) int {
	for i, h := range e.holders {
		if h.txn == txn {
			return i
		}
	}
	return -1
}

// compatible reports whether mode m can be granted alongside the current
// holders (ignoring holder self, for upgrades).
func (e *entry) compatible(txn TxnID, m Mode) bool {
	for _, h := range e.holders {
		if h.txn == txn {
			continue
		}
		if m == Exclusive || h.mode == Exclusive {
			return false
		}
	}
	return true
}

// Lock acquires key in the given mode for txn, blocking behind incompatible
// holders and earlier waiters (FCFS, except that lock upgrades go to the
// front). Re-requesting a held mode is a no-op; requesting Exclusive while
// holding Shared performs an upgrade. Returns ErrDeadlock if aborted.
func (t *Table) Lock(p *sim.Proc, txn TxnID, key Key, m Mode) error {
	e := t.entries[key]
	if e == nil {
		if n := len(t.freeEntries); n > 0 {
			e = t.freeEntries[n-1]
			t.freeEntries = t.freeEntries[:n-1]
		} else {
			e = &entry{}
		}
		t.entries[key] = e
	}
	if i := e.holding(txn); i >= 0 {
		if e.holders[i].mode == Exclusive || m == Shared {
			return nil // already sufficient
		}
		// Upgrade S -> X.
		if e.compatible(txn, Exclusive) && !t.upgradeQueued(e, txn) {
			e.holders[i].mode = Exclusive
			return nil
		}
		return t.wait(p, e, &request{p: p, txn: txn, mode: Exclusive, upgrade: true}, key)
	}
	if len(e.queue) == 0 && e.compatible(txn, m) {
		e.holders = append(e.holders, holder{txn, m})
		t.addHeld(txn, key)
		return nil
	}
	return t.wait(p, e, &request{p: p, txn: txn, mode: m}, key)
}

func (t *Table) upgradeQueued(e *entry, txn TxnID) bool {
	for _, r := range e.queue {
		if r.upgrade && r.txn != txn {
			return true
		}
	}
	return false
}

func (t *Table) wait(p *sim.Proc, e *entry, r *request, key Key) error {
	t.waits++
	if r.upgrade {
		// Upgrades wait in front of ordinary requests to avoid starving
		// behind requests they are incompatible with anyway.
		i := 0
		for i < len(e.queue) && e.queue[i].upgrade {
			i++
		}
		e.queue = append(e.queue, nil)
		copy(e.queue[i+1:], e.queue[i:])
		e.queue[i] = r
	} else {
		e.queue = append(e.queue, r)
	}
	p.Park()
	if r.aborted {
		return ErrDeadlock
	}
	if !r.granted {
		panic(fmt.Sprintf("lock: %s spurious wakeup txn %d", t.name, r.txn))
	}
	if !r.upgrade { // an upgraded key is already on txn's list
		t.addHeld(r.txn, key)
	}
	return nil
}

func (t *Table) addHeld(txn TxnID, key Key) {
	keys, ok := t.held[txn]
	if n := len(t.freeKeys); !ok && n > 0 {
		keys = t.freeKeys[n-1]
		t.freeKeys = t.freeKeys[:n-1]
	}
	t.held[txn] = append(keys, key)
}

// dropHeld forgets txn's key list and recycles it.
func (t *Table) dropHeld(txn TxnID) {
	if keys, ok := t.held[txn]; ok {
		delete(t.held, txn)
		t.freeKeys = append(t.freeKeys, keys[:0])
	}
}

// Unlock releases txn's lock on key and grants compatible waiters.
func (t *Table) Unlock(txn TxnID, key Key) {
	t.release(txn, key)
	keys := t.held[txn]
	if i := slices.Index(keys, key); i >= 0 {
		t.held[txn] = slices.Delete(keys, i, i+1)
	}
	if len(t.held[txn]) == 0 {
		t.dropHeld(txn)
	}
}

// release drops txn's hold on key, grants compatible waiters and forgets
// the key if that left it idle. It does not touch txn's key list.
func (t *Table) release(txn TxnID, key Key) {
	e := t.entries[key]
	if e == nil {
		panic(fmt.Sprintf("lock: %s unlock of unheld key %v", t.name, key))
	}
	i := e.holding(txn)
	if i < 0 {
		panic(fmt.Sprintf("lock: %s txn %d unlock of unheld key %v", t.name, txn, key))
	}
	e.holders = slices.Delete(e.holders, i, i+1)
	t.grant(e)
	t.forgetIfIdle(key, e)
}

// forgetIfIdle deletes and recycles e once nobody holds or waits for key.
func (t *Table) forgetIfIdle(key Key, e *entry) {
	if len(e.holders) == 0 && len(e.queue) == 0 {
		delete(t.entries, key)
		t.freeEntries = append(t.freeEntries, e)
	}
}

// compareKeys orders keys by (Space, Item): the order in which ReleaseAll
// and Abort release locks and wake waiters.
func compareKeys(a, b Key) int {
	if c := cmp.Compare(a.Space, b.Space); c != 0 {
		return c
	}
	return cmp.Compare(a.Item, b.Item)
}

// ReleaseAll releases every lock txn holds in this table (commit/abort under
// strict 2PL), in sorted key order so that the waiters it grants wake
// deterministically. It does not remove txn's queued requests (Abort does).
func (t *Table) ReleaseAll(txn TxnID) {
	keys, ok := t.held[txn]
	if !ok {
		return
	}
	slices.SortFunc(keys, compareKeys)
	for _, key := range keys {
		t.release(txn, key)
	}
	t.dropHeld(txn)
}

func (t *Table) grant(e *entry) {
	for len(e.queue) > 0 {
		r := e.queue[0]
		if !e.compatible(r.txn, r.mode) {
			return
		}
		e.queue = e.queue[1:]
		if i := e.holding(r.txn); i >= 0 {
			e.holders[i].mode = r.mode // upgrade
		} else {
			e.holders = append(e.holders, holder{r.txn, r.mode})
		}
		r.granted = true
		r.p.Unpark()
	}
}

// WaitsFor appends to edges the (waiter, holder) pairs of this table's
// current wait relationships; the central detector combines all tables.
func (t *Table) WaitsFor(edges map[TxnID][]TxnID) {
	for _, e := range t.entries {
		for _, r := range e.queue {
			for _, h := range e.holders {
				if h.txn != r.txn {
					edges[r.txn] = append(edges[r.txn], h.txn)
				}
			}
			// Waiters also wait for incompatible earlier queue entries.
			for _, q := range e.queue {
				if q == r {
					break
				}
				if q.txn != r.txn && (r.mode == Exclusive || q.mode == Exclusive) {
					edges[r.txn] = append(edges[r.txn], q.txn)
				}
			}
		}
	}
}

// Abort removes txn's queued requests (waking them with ErrDeadlock) and
// releases its held locks. Used by deadlock resolution.
func (t *Table) Abort(txn TxnID) {
	// Collect and sort the affected keys before touching anything: the
	// Unparks and grants below assign event sequence numbers, so waking in
	// entry-map iteration order would make every run with a deadlock abort
	// nondeterministic (the same reason ReleaseAll sorts).
	var keys []Key
	for key, e := range t.entries {
		if e.holding(txn) >= 0 || slices.ContainsFunc(e.queue, func(r *request) bool { return r.txn == txn }) {
			keys = append(keys, key)
		}
	}
	slices.SortFunc(keys, compareKeys)
	aborted := false
	for _, key := range keys {
		e := t.entries[key]
		for i := 0; i < len(e.queue); {
			r := e.queue[i]
			if r.txn == txn {
				e.queue = append(e.queue[:i], e.queue[i+1:]...)
				r.aborted = true
				aborted = true
				r.p.Unpark()
				continue
			}
			i++
		}
		if i := e.holding(txn); i >= 0 {
			e.holders = slices.Delete(e.holders, i, i+1)
			t.grant(e)
		}
		t.forgetIfIdle(key, e)
	}
	t.dropHeld(txn)
	if aborted {
		t.deadlocks++
	}
}
