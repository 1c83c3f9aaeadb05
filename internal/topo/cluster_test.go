package topo

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestNewCluster(t *testing.T) {
	c := New(3, 12)
	if len(c.hosts) != 3 {
		t.Fatalf("%d hosts, want 3", len(c.hosts))
	}
	if c.Slots() != 36 {
		t.Fatalf("Slots = %d, want 36", c.Slots())
	}
	if c.Host(1).Name != "node01" {
		t.Fatalf("Host(1).Name = %q, want node01", c.Host(1).Name)
	}
}

func TestNewClusterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0, 12) did not panic")
		}
	}()
	New(0, 12)
}

func TestForRanks(t *testing.T) {
	cases := []struct{ ranks, slots, wantHosts int }{
		{1, 12, 1},
		{12, 12, 1},
		{13, 12, 2},
		{304, 12, 26}, // paper's largest configuration on OPL
		{0, 12, 1},
	}
	for _, tc := range cases {
		if got := len(ForRanks(tc.ranks, tc.slots).hosts); got != tc.wantHosts {
			t.Errorf("ForRanks(%d,%d) hosts = %d, want %d", tc.ranks, tc.slots, got, tc.wantHosts)
		}
	}
}

// TestHostIndexOfRank checks the paper's SLOTS=12 arithmetic from Fig. 5.
func TestHostIndexOfRank(t *testing.T) {
	c := New(4, 12)
	cases := []struct{ rank, want int }{
		{0, 0}, {11, 0}, {12, 1}, {23, 1}, {24, 2}, {47, 3},
	}
	for _, tc := range cases {
		got, err := c.HostIndexOfRank(tc.rank)
		if err != nil {
			t.Fatalf("HostIndexOfRank(%d): %v", tc.rank, err)
		}
		if got != tc.want {
			t.Errorf("HostIndexOfRank(%d) = %d, want %d (rank/SLOTS)", tc.rank, got, tc.want)
		}
	}
	if _, err := c.HostIndexOfRank(48); err == nil {
		t.Error("rank beyond capacity did not error")
	}
	if _, err := c.HostIndexOfRank(-1); err == nil {
		t.Error("negative rank did not error")
	}
}

func TestHostIndexOfRankPropertyMatchesDivision(t *testing.T) {
	c := New(26, 12)
	f := func(r uint16) bool {
		rank := int(r) % c.Slots()
		got, err := c.HostIndexOfRank(rank)
		return err == nil && got == rank/12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnHosts(t *testing.T) {
	c := New(4, 12)
	hosts, err := c.SpawnHosts([]int{3, 15, 40})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"node00", "node01", "node03"}
	for i := range want {
		if hosts[i] != want[i] {
			t.Errorf("SpawnHosts[%d] = %q, want %q", i, hosts[i], want[i])
		}
	}
}

func TestHostIndexByName(t *testing.T) {
	c := New(2, 4)
	if i, err := c.HostIndexByName("node01"); err != nil || i != 1 {
		t.Fatalf("HostIndexByName(node01) = %d, %v", i, err)
	}
	if _, err := c.HostIndexByName("nope"); err == nil {
		t.Fatal("unknown host did not error")
	}
}

// TestSameHostRespawnPreservesBalance is the placement half of the paper's
// load-balancing argument: killing ranks and respawning them on the hosts
// they ran on leaves every host's load exactly as before.
func TestSameHostRespawnPreservesBalance(t *testing.T) {
	c := New(4, 3)
	n := 12
	hostOf := make([]int, n)
	for r := 0; r < n; r++ {
		i, _ := c.HostIndexOfRank(r)
		hostOf[r] = i
	}
	load := func() []int {
		out := make([]int, len(c.hosts))
		for _, h := range hostOf {
			out[h]++
		}
		return out
	}
	before := load()

	failed := []int{1, 7, 10}
	hosts, err := c.SpawnHosts(failed)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range failed {
		idx, err := c.HostIndexByName(hosts[i])
		if err != nil {
			t.Fatal(err)
		}
		hostOf[r] = idx
	}
	if after := load(); !slices.Equal(before, after) {
		t.Fatalf("same-host respawn changed the per-host load: before %v, after %v", before, after)
	}
}

// TestNamePadWidth checks the host-name suffix widens with the cluster so
// hostfiles stay lexically sorted past 100 (and 1000) hosts.
func TestNamePadWidth(t *testing.T) {
	cases := []struct {
		nhosts int
		first  string
		last   string
	}{
		{4, "node00", "node03"},
		{100, "node00", "node99"},
		{101, "node000", "node100"},
		{342, "node000", "node341"},
		{1000, "node000", "node999"},
		{1001, "node0000", "node1000"},
	}
	for _, cse := range cases {
		c := New(cse.nhosts, 2)
		if got := c.Host(0).Name; got != cse.first {
			t.Errorf("New(%d): Host(0) = %q, want %q", cse.nhosts, got, cse.first)
		}
		if got := c.Host(cse.nhosts - 1).Name; got != cse.last {
			t.Errorf("New(%d): last host = %q, want %q", cse.nhosts, got, cse.last)
		}
		for i := 1; i < cse.nhosts; i++ {
			if !(c.Host(i-1).Name < c.Host(i).Name) {
				t.Fatalf("New(%d): names not lexically sorted at %d: %q >= %q",
					cse.nhosts, i, c.Host(i-1).Name, c.Host(i).Name)
			}
		}
	}
}

// TestNewRacked checks rack assignment is contiguous, balanced and covers
// every rack, and that Placement agrees with HostIndexOfRank.
func TestNewRacked(t *testing.T) {
	c := NewRacked(10, 4, 3)
	prev := 0
	counts := make(map[int]int)
	for i := range c.hosts {
		r := c.RackOfHost(i)
		if r < prev {
			t.Fatalf("rack of host %d = %d, decreased from %d (not contiguous)", i, r, prev)
		}
		prev = r
		counts[r]++
	}
	if len(counts) != 3 {
		t.Fatalf("%d racks, want 3", len(counts))
	}
	for r, n := range counts {
		if n < 3 || n > 4 {
			t.Errorf("rack %d holds %d hosts, want 3 or 4", r, n)
		}
	}
	for rank := 0; rank < c.Slots(); rank++ {
		host, rack, err := c.Placement(rank)
		if err != nil {
			t.Fatal(err)
		}
		wantHost, _ := c.HostIndexOfRank(rank)
		if host != wantHost || rack != c.RackOfHost(host) {
			t.Fatalf("Placement(%d) = (%d,%d), want (%d,%d)",
				rank, host, rack, wantHost, c.RackOfHost(wantHost))
		}
	}
	if _, _, err := c.Placement(c.Slots()); err == nil {
		t.Fatal("Placement past capacity did not error")
	}
}

func TestNewRackedDegenerateShapesPanic(t *testing.T) {
	for _, shape := range [][3]int{{2, 4, 3}, {2, 4, 0}, {0, 4, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewRacked(%v) did not panic", shape)
				}
			}()
			NewRacked(shape[0], shape[1], shape[2])
		}()
	}
}
