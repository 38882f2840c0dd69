// Package catalog models the simulated database: relations declustered
// horizontally across processing elements (PEs) and disks, page/tuple
// geometry, and B+-tree indices. It mirrors the database model of Rahm &
// Marek's simulation system (Section 4): a partition is a set of pages, each
// holding blocking-factor objects, with optional clustered or unclustered
// B+-tree indices.
package catalog

import (
	"fmt"
	"math"
)

// IndexKind describes the index available on a relation's join/select key.
type IndexKind int

// Index kinds.
const (
	NoIndex IndexKind = iota
	ClusteredBTree
	UnclusteredBTree
)

func (ik IndexKind) String() string {
	switch ik {
	case NoIndex:
		return "none"
	case ClusteredBTree:
		return "clustered-b+tree"
	case UnclusteredBTree:
		return "unclustered-b+tree"
	default:
		return fmt.Sprintf("IndexKind(%d)", int(ik))
	}
}

// Relation is a horizontally declustered table.
type Relation struct {
	Name     string
	Tuples   int64
	Blocking int       // tuples per page (blocking factor)
	Index    IndexKind // index on the scan/join attribute
	HomePEs  []int     // PEs owning fragments, in declustering order
	Fanout   int       // B+-tree fanout (entries per index page)
}

// Validate checks structural invariants.
func (r *Relation) Validate() error {
	switch {
	case r.Name == "":
		return fmt.Errorf("catalog: relation without name")
	case r.Tuples <= 0:
		return fmt.Errorf("catalog: relation %s: tuples %d <= 0", r.Name, r.Tuples)
	case r.Blocking <= 0:
		return fmt.Errorf("catalog: relation %s: blocking factor %d <= 0", r.Name, r.Blocking)
	case len(r.HomePEs) == 0:
		return fmt.Errorf("catalog: relation %s: no home PEs", r.Name)
	case r.Index != NoIndex && r.Fanout < 2:
		return fmt.Errorf("catalog: relation %s: indexed with fanout %d < 2", r.Name, r.Fanout)
	}
	seen := make(map[int]bool, len(r.HomePEs))
	for _, pe := range r.HomePEs {
		if pe < 0 {
			return fmt.Errorf("catalog: relation %s: negative PE %d", r.Name, pe)
		}
		if seen[pe] {
			return fmt.Errorf("catalog: relation %s: duplicate home PE %d", r.Name, pe)
		}
		seen[pe] = true
	}
	return nil
}

// Pages returns the total data pages of the relation.
func (r *Relation) Pages() int64 {
	return ceilDiv(r.Tuples, int64(r.Blocking))
}

// PagesFor returns the pages needed to hold n tuples of this relation.
func (r *Relation) PagesFor(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return ceilDiv(n, int64(r.Blocking))
}

// FragmentTuples returns the tuple count of the fragment on the idx-th home
// PE (uniform declustering; the first Tuples mod n fragments hold one extra).
func (r *Relation) FragmentTuples(idx int) int64 {
	n := int64(len(r.HomePEs))
	if idx < 0 || int64(idx) >= n {
		panic(fmt.Sprintf("catalog: relation %s: fragment index %d of %d", r.Name, idx, n))
	}
	base := r.Tuples / n
	if int64(idx) < r.Tuples%n {
		base++
	}
	return base
}

// FragmentPages returns the data pages of the idx-th fragment.
func (r *Relation) FragmentPages(idx int) int64 {
	return r.PagesFor(r.FragmentTuples(idx))
}

// HomeIndex returns the fragment index of pe, or -1 if pe holds no fragment.
func (r *Relation) HomeIndex(pe int) int {
	for i, h := range r.HomePEs {
		if h == pe {
			return i
		}
	}
	return -1
}

// IndexHeight returns the number of index levels above the data (clustered)
// or above the leaf/RID level (unclustered) for the idx-th fragment: the
// pages traversed by one key lookup before reaching data.
func (r *Relation) IndexHeight(idx int) int {
	if r.Index == NoIndex {
		return 0
	}
	leaves := r.FragmentPages(idx)
	if r.Index == UnclusteredBTree {
		// RID-list leaf level: one entry per tuple.
		leaves = ceilDiv(r.FragmentTuples(idx), int64(r.Fanout))
	}
	h := 1 // the leaf level itself is traversed
	for leaves > 1 {
		leaves = ceilDiv(leaves, int64(r.Fanout))
		h++
	}
	return h
}

// Database is a named set of relations.
type Database struct {
	rels map[string]*Relation
	ord  []string
}

// NewDatabase creates an empty database.
func NewDatabase() *Database {
	return &Database{rels: make(map[string]*Relation)}
}

// Add validates and registers a relation; it rejects duplicates.
func (db *Database) Add(r *Relation) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if _, dup := db.rels[r.Name]; dup {
		return fmt.Errorf("catalog: duplicate relation %s", r.Name)
	}
	db.rels[r.Name] = r
	db.ord = append(db.ord, r.Name)
	return nil
}

// Get returns the named relation, or nil.
func (db *Database) Get(name string) *Relation { return db.rels[name] }

// Relations returns all relations in registration order.
func (db *Database) Relations() []*Relation {
	out := make([]*Relation, 0, len(db.ord))
	for _, n := range db.ord {
		out = append(out, db.rels[n])
	}
	return out
}

// SelectivityTuples returns the number of tuples matching a predicate with
// the given selectivity (fraction in [0,1]) over n tuples, rounded to
// nearest, at least 1 for any positive selectivity.
func SelectivityTuples(n int64, sel float64) int64 {
	if sel <= 0 {
		return 0
	}
	if sel >= 1 {
		return n
	}
	t := int64(math.Round(float64(n) * sel))
	if t < 1 {
		t = 1
	}
	return t
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("catalog: ceilDiv by non-positive")
	}
	return (a + b - 1) / b
}

// Range splits [0,total) tuples into parts nearly equal shares and returns
// the size of share idx. It is the uniform redistribution used when scan
// output is partitioned among join processors without skew.
func Range(total int64, parts, idx int) int64 {
	if parts <= 0 || idx < 0 || idx >= parts {
		panic(fmt.Sprintf("catalog: Range(%d, %d, %d)", total, parts, idx))
	}
	base := total / int64(parts)
	if int64(idx) < total%int64(parts) {
		base++
	}
	return base
}
