// Package topo models the physical layout of the simulated cluster: hosts,
// MPI slots per host, and the rank-to-host placement arithmetic
// the paper uses to re-spawn failed processes on the host where they ran
// before the failure (Fig. 5, lines 5-12), preserving load balance.
package topo

import (
	"fmt"
	"strconv"
)

// Host is one cluster node.
type Host struct {
	// Name is the hostname as it would appear in an Open MPI hostfile.
	Name string
	// Slots is the number of MPI slots (cores) available on the host.
	Slots int
	// Rack is the index of the rack (switch group) holding the host. Hosts
	// in the same rack share a leaf switch; traffic between racks crosses
	// an extra tier. Synthetic single-rack clusters leave it 0.
	Rack int
}

// Cluster is an ordered list of hosts, mirroring a hostfile. Ranks are laid
// out host-by-host in hostfile order, Slots ranks per host, exactly as
// mpirun does with a by-slot mapping.
type Cluster struct {
	hosts []Host
}

// New builds a synthetic single-rack cluster of nhosts nodes named node00,
// node01, ..., each with the given number of slots. The numeric suffix is
// zero-padded to the width of the largest index (minimum 2), so host lists
// and reports stay lexically sorted at any cluster size. It panics on
// non-positive arguments.
func New(nhosts, slotsPerHost int) *Cluster {
	return NewRacked(nhosts, slotsPerHost, 1)
}

// NewRacked builds a synthetic cluster of nhosts nodes spread over nracks
// racks in contiguous, balanced blocks (rack of host i = i*nracks/nhosts).
// It panics when the shape is degenerate: non-positive counts or more racks
// than hosts.
func NewRacked(nhosts, slotsPerHost, nracks int) *Cluster {
	if nhosts <= 0 || slotsPerHost <= 0 || nracks <= 0 || nracks > nhosts {
		panic(fmt.Sprintf("topo: invalid cluster %d hosts x %d slots in %d racks",
			nhosts, slotsPerHost, nracks))
	}
	width := len(strconv.Itoa(nhosts - 1))
	if width < 2 {
		width = 2
	}
	c := &Cluster{hosts: make([]Host, nhosts)}
	for i := range c.hosts {
		c.hosts[i] = Host{
			Name:  fmt.Sprintf("node%0*d", width, i),
			Slots: slotsPerHost,
			Rack:  i * nracks / nhosts,
		}
	}
	return c
}

// ForRanks builds the smallest uniform cluster that can hold nranks ranks at
// slotsPerHost slots per host.
func ForRanks(nranks, slotsPerHost int) *Cluster {
	if nranks <= 0 {
		nranks = 1
	}
	nhosts := (nranks + slotsPerHost - 1) / slotsPerHost
	return New(nhosts, slotsPerHost)
}

// Slots returns the total number of slots across all hosts.
func (c *Cluster) Slots() int {
	total := 0
	for _, h := range c.hosts {
		total += h.Slots
	}
	return total
}

// Host returns the i-th host (hostfile order).
func (c *Cluster) Host(i int) Host {
	return c.hosts[i]
}

// HostIndexOfRank returns the hostfile line index of the host that runs the
// given rank. This is the paper's "hostfileLineIndex <- failedRank / SLOTS"
// (Fig. 5 line 6) generalised to heterogeneous slot counts.
func (c *Cluster) HostIndexOfRank(rank int) (int, error) {
	if rank < 0 {
		return 0, fmt.Errorf("topo: negative rank %d", rank)
	}
	r := rank
	for i, h := range c.hosts {
		if r < h.Slots {
			return i, nil
		}
		r -= h.Slots
	}
	return 0, fmt.Errorf("topo: rank %d beyond cluster capacity %d", rank, c.Slots())
}

// RackOfHost returns the rack index of host i.
func (c *Cluster) RackOfHost(i int) int { return c.hosts[i].Rack }

// Placement resolves a rank to its (host index, rack index) — the two
// placement tiers the hierarchical collectives and the tiered LogGP cost
// model key on.
func (c *Cluster) Placement(rank int) (host, rack int, err error) {
	host, err = c.HostIndexOfRank(rank)
	if err != nil {
		return 0, 0, err
	}
	return host, c.hosts[host].Rack, nil
}

// HostOfRank returns the host that runs the given rank.
func (c *Cluster) HostOfRank(rank int) (Host, error) {
	i, err := c.HostIndexOfRank(rank)
	if err != nil {
		return Host{}, err
	}
	return c.hosts[i], nil
}

// HostIndexByName finds a host by name, as MPI_Comm_spawn_multiple does when
// given an MPI_Info "host" key.
func (c *Cluster) HostIndexByName(name string) (int, error) {
	for i, h := range c.hosts {
		if h.Name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("topo: unknown host %q", name)
}

// SpawnHosts returns, for each failed rank, the name of the host the rank
// was running on — the placement list handed to MPI_Comm_spawn_multiple so
// replacements land on the same physical node (paper Fig. 5 lines 5-12).
func (c *Cluster) SpawnHosts(failedRanks []int) ([]string, error) {
	hosts := make([]string, len(failedRanks))
	for i, r := range failedRanks {
		h, err := c.HostOfRank(r)
		if err != nil {
			return nil, err
		}
		hosts[i] = h.Name
	}
	return hosts, nil
}
