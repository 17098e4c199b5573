// Package storage implements a small in-memory row-store used by the
// execution simulator. Tables are stored as vertical fractions: each fraction
// holds a subset of a table's attributes and stores its rows as contiguous
// byte slices, the way an H-store-like row store would lay out a vertically
// partitioned table on one site.
//
// Every access method maintains byte and row counters, which is what the
// simulator compares against the analytical cost model of the paper.
package storage

import (
	"fmt"
	"sync"
)

// Column describes one attribute stored in a fraction.
type Column struct {
	Name  string
	Width int
}

// Fraction is a vertical fragment of one table on one site.
type Fraction struct {
	Table   string
	Columns []Column
	width   int
	rows    [][]byte
}

// Width returns the row width of the fraction in bytes.
func (f *Fraction) Width() int { return f.width }

// NumRows returns the number of stored rows.
func (f *Fraction) NumRows() int { return len(f.rows) }

// Columns returns whether the fraction stores the named column.
func (f *Fraction) HasColumn(name string) bool {
	for _, c := range f.Columns {
		if c.Name == name {
			return true
		}
	}
	return false
}

// Counters accumulate the bytes and rows moved by access methods.
type Counters struct {
	BytesRead    float64
	BytesWritten float64
	RowsRead     float64
	RowsWritten  float64
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.BytesRead += other.BytesRead
	c.BytesWritten += other.BytesWritten
	c.RowsRead += other.RowsRead
	c.RowsWritten += other.RowsWritten
}

// Store is the storage engine of a single site.
type Store struct {
	mu        sync.Mutex
	fractions map[string][]*Fraction // table -> fractions on this site
	counters  Counters
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{fractions: make(map[string][]*Fraction)}
}

// CreateFraction registers a vertical fragment of a table on this site and
// returns it. Creating a fraction with no columns is an error.
func (s *Store) CreateFraction(table string, cols []Column) (*Fraction, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: fraction of %q needs at least one column", table)
	}
	f := &Fraction{Table: table, Columns: append([]Column(nil), cols...)}
	for _, c := range cols {
		if c.Width <= 0 {
			return nil, fmt.Errorf("storage: column %s.%s has non-positive width %d", table, c.Name, c.Width)
		}
		f.width += c.Width
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fractions[table] = append(s.fractions[table], f)
	return f, nil
}

// Populate fills every fraction of a table with n synthetic rows (zero-filled
// payloads of the fraction's width).
func (s *Store) Populate(table string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, f := range s.fractions[table] {
		for i := 0; i < n; i++ {
			f.rows = append(f.rows, make([]byte, f.width))
		}
	}
}

// ReadRows reads rows complete rows from every fraction of the table that
// stores at least one of the wanted columns, and returns the number of bytes
// touched. The weight multiplies the accounting (it represents the query
// frequency).
func (s *Store) ReadRows(table string, wanted []string, rows float64, weight float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	bytes := 0.0
	for _, f := range s.fractions[table] {
		if !anyColumn(f, wanted) {
			continue
		}
		n := int(rows)
		if n > len(f.rows) {
			n = len(f.rows)
		}
		// Touch the actual tuples so the accounting reflects real buffers.
		touched := 0
		for i := 0; i < n; i++ {
			touched += len(f.rows[i])
		}
		// Rows beyond the materialised data still cost their width (the
		// simulator may be populated with fewer rows than the workload
		// statistics assume).
		touched += (int(rows) - n) * f.width
		bytes += float64(touched) * weight
		s.counters.RowsRead += rows * weight
	}
	s.counters.BytesRead += bytes
	return bytes
}

// WriteRows writes rows complete rows into every fraction of the table
// (regardless of which columns are written — the paper's "access all
// attributes" accounting, exact for inserts) and returns the bytes written.
func (s *Store) WriteRows(table string, rows float64, weight float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	bytes := 0.0
	for _, f := range s.fractions[table] {
		n := int(rows)
		for i := 0; i < n && i < len(f.rows); i++ {
			// Overwrite the tuple in place to simulate the write path.
			for j := range f.rows[i] {
				f.rows[i][j] = byte(j)
			}
		}
		bytes += float64(f.width) * rows * weight
		s.counters.RowsWritten += rows * weight
	}
	s.counters.BytesWritten += bytes
	return bytes
}

// anyColumn reports whether the fraction stores any of the wanted columns.
func anyColumn(f *Fraction, wanted []string) bool {
	for _, w := range wanted {
		if f.HasColumn(w) {
			return true
		}
	}
	return false
}

// Counters returns a snapshot of the accumulated counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counters
}
