// Package cluster models a shared-nothing cluster of sites for the execution
// simulator: every site owns a storage engine and sites exchange data over a
// network with a configurable penalty factor (the paper's p).
package cluster

import (
	"fmt"
	"sync"

	"vpart/internal/storage"
)

// Network accounts for inter-site transfers.
type Network struct {
	mu sync.Mutex
	// Penalty is the relative cost of transferring one byte versus accessing
	// it locally (the paper's p).
	Penalty  float64
	bytes    float64
	messages int
}

// Transfer records a transfer of the given number of bytes between two
// distinct sites and returns its penalised cost.
func (n *Network) Transfer(from, to int, bytes float64) float64 {
	if from == to || bytes == 0 {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.bytes += bytes
	n.messages++
	return bytes * n.Penalty
}

// Bytes returns the total number of bytes transferred.
func (n *Network) Bytes() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.bytes
}

// Messages returns the number of transfer operations.
func (n *Network) Messages() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.messages
}

// Cluster is a set of sites plus the network connecting them.
type Cluster struct {
	sites   []*storage.Store
	network *Network
}

// New creates a cluster with the given number of sites and network penalty.
func New(sites int, penalty float64) (*Cluster, error) {
	if sites < 1 {
		return nil, fmt.Errorf("cluster: need at least one site, got %d", sites)
	}
	if penalty < 0 {
		return nil, fmt.Errorf("cluster: negative network penalty %g", penalty)
	}
	c := &Cluster{network: &Network{Penalty: penalty}}
	for i := 0; i < sites; i++ {
		c.sites = append(c.sites, storage.NewStore())
	}
	return c, nil
}

// NumSites returns the number of sites.
func (c *Cluster) NumSites() int { return len(c.sites) }

// Site returns the storage engine of site s.
func (c *Cluster) Site(s int) *storage.Store { return c.sites[s] }

// Network returns the cluster's network.
func (c *Cluster) Network() *Network { return c.network }

// Counters returns the aggregated storage counters across all sites.
func (c *Cluster) Counters() storage.Counters {
	var total storage.Counters
	for _, s := range c.sites {
		total.Add(s.Counters())
	}
	return total
}

// SiteBytes returns, per site, the sum of bytes read and written there.
func (c *Cluster) SiteBytes() []float64 {
	out := make([]float64, len(c.sites))
	for i, s := range c.sites {
		cnt := s.Counters()
		out[i] = cnt.BytesRead + cnt.BytesWritten
	}
	return out
}
