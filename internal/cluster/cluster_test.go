package cluster

import (
	"sync"
	"testing"

	"vpart/internal/storage"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 8); err == nil {
		t.Error("zero sites accepted")
	}
	if _, err := New(2, -1); err == nil {
		t.Error("negative penalty accepted")
	}
	c, err := New(3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSites() != 3 {
		t.Fatalf("NumSites = %d", c.NumSites())
	}
}

func TestNetworkAccounting(t *testing.T) {
	c, _ := New(2, 8)
	n := c.Network()
	if cost := n.Transfer(0, 1, 100); cost != 800 {
		t.Fatalf("penalised transfer cost = %g, want 800", cost)
	}
	if cost := n.Transfer(0, 0, 100); cost != 0 {
		t.Fatalf("same-site transfer should be free, got %g", cost)
	}
	if cost := n.Transfer(0, 1, 0); cost != 0 {
		t.Fatalf("zero-byte transfer should be free, got %g", cost)
	}
	if n.Bytes() != 100 || n.Messages() != 1 {
		t.Fatalf("network counters: %g bytes, %d messages", n.Bytes(), n.Messages())
	}
}

func TestClusterCounters(t *testing.T) {
	c, _ := New(2, 4)
	for s := 0; s < 2; s++ {
		if _, err := c.Site(s).CreateFraction("T", []storage.Column{{Name: "a", Width: 10}}); err != nil {
			t.Fatal(err)
		}
		c.Site(s).Populate("T", 4)
	}
	c.Site(0).ReadRows("T", []string{"a"}, 2, 1)
	c.Site(1).WriteRows("T", 3, 1)

	total := c.Counters()
	if total.BytesRead != 20 || total.BytesWritten != 30 {
		t.Fatalf("aggregated counters: %+v", total)
	}
	sb := c.SiteBytes()
	if sb[0] != 20 || sb[1] != 30 {
		t.Fatalf("SiteBytes = %v", sb)
	}
}

func TestNetworkConcurrency(t *testing.T) {
	c, _ := New(2, 1)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Network().Transfer(0, 1, 1)
			}
		}()
	}
	wg.Wait()
	if c.Network().Bytes() != 2000 || c.Network().Messages() != 2000 {
		t.Fatalf("lost network updates: %g bytes, %d messages", c.Network().Bytes(), c.Network().Messages())
	}
}
