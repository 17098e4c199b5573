package storage

import (
	"sync"
	"testing"
)

func TestCreateFractionAndWidth(t *testing.T) {
	s := NewStore()
	f, err := s.CreateFraction("T", []Column{{Name: "a", Width: 4}, {Name: "b", Width: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Width() != 12 {
		t.Fatalf("width = %d, want 12", f.Width())
	}
	if !f.HasColumn("a") || f.HasColumn("zz") {
		t.Fatal("HasColumn broken")
	}
	if _, err := s.CreateFraction("T", nil); err == nil {
		t.Fatal("empty fraction accepted")
	}
	if _, err := s.CreateFraction("T", []Column{{Name: "a", Width: 0}}); err == nil {
		t.Fatal("zero-width column accepted")
	}
}

func TestPopulateAndRead(t *testing.T) {
	s := NewStore()
	f, err := s.CreateFraction("T", []Column{{Name: "a", Width: 4}, {Name: "b", Width: 6}})
	if err != nil {
		t.Fatal(err)
	}
	s.Populate("T", 5)
	if got := f.NumRows(); got != 5 {
		t.Fatalf("NumRows = %d, want 5", got)
	}

	// Reading 3 rows touches 3·10 bytes.
	bytes := s.ReadRows("T", []string{"a"}, 3, 1)
	if bytes != 30 {
		t.Fatalf("ReadRows = %g, want 30", bytes)
	}
	// Reading a column the fraction does not store touches nothing.
	if got := s.ReadRows("T", []string{"zz"}, 3, 1); got != 0 {
		t.Fatalf("ReadRows(zz) = %g, want 0", got)
	}
	// Reading more rows than materialised still accounts for the full count.
	if got := s.ReadRows("T", []string{"b"}, 10, 2); got != 200 {
		t.Fatalf("ReadRows beyond data = %g, want 200", got)
	}
	c := s.Counters()
	if c.BytesRead != 230 {
		t.Fatalf("BytesRead = %g, want 230", c.BytesRead)
	}
	if c.RowsRead != 3+20 {
		t.Fatalf("RowsRead = %g, want 23", c.RowsRead)
	}
}

func TestWriteRows(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateFraction("T", []Column{{Name: "a", Width: 4}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateFraction("T", []Column{{Name: "b", Width: 16}}); err != nil {
		t.Fatal(err)
	}
	s.Populate("T", 2)
	bytes := s.WriteRows("T", 2, 1)
	if bytes != 2*4+2*16 {
		t.Fatalf("WriteRows = %g, want 40", bytes)
	}
	c := s.Counters()
	if c.BytesWritten != 40 || c.RowsWritten != 4 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestCountersAdd(t *testing.T) {
	a := Counters{BytesRead: 1, BytesWritten: 2, RowsRead: 3, RowsWritten: 4}
	b := Counters{BytesRead: 10, BytesWritten: 20, RowsRead: 30, RowsWritten: 40}
	a.Add(b)
	if a.BytesRead != 11 || a.BytesWritten != 22 || a.RowsRead != 33 || a.RowsWritten != 44 {
		t.Fatalf("Add result: %+v", a)
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateFraction("T", []Column{{Name: "a", Width: 8}}); err != nil {
		t.Fatal(err)
	}
	s.Populate("T", 10)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s.ReadRows("T", []string{"a"}, 1, 1)
				s.WriteRows("T", 1, 1)
			}
		}()
	}
	wg.Wait()
	c := s.Counters()
	if c.BytesRead != 16*50*8 || c.BytesWritten != 16*50*8 {
		t.Fatalf("concurrent counters lost updates: %+v", c)
	}
}
