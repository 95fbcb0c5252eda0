// Package topology models the data center networks Goldilocks places
// containers on. The paper's algorithms view the DCN as a hierarchy of
// substructures — server ⊂ rack ⊂ pod ⊂ data center — and the package
// represents exactly that: a tree of Nodes whose leaves are servers, where
// every non-root node owns an aggregate *outbound link* summarizing the
// bisection bandwidth between its subtree and the rest of the network
// (the quantity Eqs. 4–5 reserve against).
//
// Builders cover the paper's networks: the 16-server leaf-spine testbed
// (§V), k-ary fat-trees (§VI-B uses k=28: 5488 servers, 980 switches), and
// the five Table I data center specifications used for the Fig. 3 power
// breakdown. Link and switch failures make a topology asymmetric (§IV).
package topology

import (
	"fmt"

	"goldilocks/internal/power"
	"goldilocks/internal/resources"
)

// Level identifies a node's height in the hierarchy.
type Level int

// Node levels, bottom-up.
const (
	LevelServer Level = iota
	LevelRack
	LevelPod
	LevelRoot
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelServer:
		return "server"
	case LevelRack:
		return "rack"
	case LevelPod:
		return "pod"
	case LevelRoot:
		return "root"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// Link is the aggregate outbound connectivity of a subtree: the bisection
// bandwidth between the subtree and the remainder of the data center.
type Link struct {
	CapacityMbps float64
	// nominalMbps snapshots the healthy design capacity the first time a
	// failure setter degrades the link, so RecoverUplink restores the
	// exact pre-failure value (repeated fractional failures compound on
	// CapacityMbps and would otherwise be irreversible). Zero means the
	// link has never been degraded.
	nominalMbps float64
}

// SwitchGroup is a set of identical switches attached to a node (e.g. the
// k/2 aggregation switches of a fat-tree pod).
type SwitchGroup struct {
	Model power.SwitchModel
	Count int
}

// Node is one vertex of the hierarchy tree. Servers are leaves
// (Level == LevelServer); the root has a nil Uplink.
type Node struct {
	ID       int
	Level    Level
	Parent   *Node
	Children []*Node
	// ServerIDs lists all servers underneath this node, ascending.
	ServerIDs []int
	// Uplink is the aggregate outbound link of this subtree; nil at root.
	Uplink *Link
	// Switches attached at this node (ToR at racks, aggregation at pods,
	// core/spine at root).
	Switches []SwitchGroup
	// ServerID is the server index for leaves, -1 otherwise.
	ServerID int
}

// IsServer reports whether the node is a server leaf.
func (n *Node) IsServer() bool { return n.Level == LevelServer }

// Topology is a complete data center network.
type Topology struct {
	Name string
	Root *Node
	// ServerNode maps server id to its leaf node.
	ServerNode []*Node
	// Capacity is the per-server resource capacity (heterogeneous servers
	// simply differ here).
	Capacity []resources.Vector
	// Server is the per-server power model.
	Server []power.ServerModel
	// nodes lists every node, servers first, then racks, pods, root.
	nodes []*Node
	// failedServer flags servers taken down by FailServer; nil until the
	// first failure touches the topology.
	failedServer []bool
	// nominalCapacity snapshots every server's healthy capacity vector the
	// first time a failure or throttle mutates Capacity, so RecoverServer
	// restores the exact pre-failure value.
	nominalCapacity []resources.Vector
}

// NumServers returns the number of servers.
func (t *Topology) NumServers() int { return len(t.ServerNode) }

// Nodes returns every node in the topology. The slice is owned by the
// topology and must not be modified.
func (t *Topology) Nodes() []*Node { return t.nodes }

// NumSwitches counts physical switches across all nodes.
func (t *Topology) NumSwitches() int {
	total := 0
	for _, n := range t.nodes {
		for _, sg := range n.Switches {
			total += sg.Count
		}
	}
	return total
}

// HopDistance returns the number of links on the shortest path between two
// servers: 0 to itself, 2 within a rack, 4 within a pod, 6 across pods in a
// three-tier network (twice the level of the lowest common ancestor).
func (t *Topology) HopDistance(a, b int) int {
	if a == b {
		return 0
	}
	na, nb := t.ServerNode[a], t.ServerNode[b]
	// Walk both up to equal depth, then in lockstep to the LCA.
	hops := 0
	for depth(na) > depth(nb) {
		na = na.Parent
		hops++
	}
	for depth(nb) > depth(na) {
		nb = nb.Parent
		hops++
	}
	for na != nb {
		na, nb = na.Parent, nb.Parent
		hops += 2
	}
	return hops
}

func depth(n *Node) int {
	d := 0
	for n.Parent != nil {
		n = n.Parent
		d++
	}
	return d
}

// LCA returns the lowest common ancestor node of two servers.
func (t *Topology) LCA(a, b int) *Node {
	na, nb := t.ServerNode[a], t.ServerNode[b]
	for depth(na) > depth(nb) {
		na = na.Parent
	}
	for depth(nb) > depth(na) {
		nb = nb.Parent
	}
	for na != nb {
		na, nb = na.Parent, nb.Parent
	}
	return na
}

// PathLinks returns the aggregate links traversed by traffic between two
// servers: the uplinks of every subtree strictly below the LCA on both
// branches. A flow between servers in the same rack crosses both server
// NIC links; across racks it additionally crosses the rack uplinks, etc.
func (t *Topology) PathLinks(a, b int) []*Link {
	if a == b {
		return nil
	}
	lca := t.LCA(a, b)
	var links []*Link
	for n := t.ServerNode[a]; n != lca; n = n.Parent {
		links = append(links, n.Uplink)
	}
	for n := t.ServerNode[b]; n != lca; n = n.Parent {
		links = append(links, n.Uplink)
	}
	return links
}

// SubtreesAtLevel returns all nodes of the given level in left-to-right
// order.
func (t *Topology) SubtreesAtLevel(l Level) []*Node {
	var out []*Node
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.Level == l {
			out = append(out, n)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// TotalCapacity sums server capacities.
func (t *Topology) TotalCapacity() resources.Vector {
	return resources.Sum(t.Capacity)
}

// AverageCapacity returns the mean per-server capacity over the surviving
// servers; the asymmetric placement algorithm partitions against this
// before fitting heterogeneous servers individually (§IV-A). Failed
// servers are excluded — averaging in their zeroed capacity would shrink
// the partition groups far below what the survivors can actually host.
func (t *Topology) AverageCapacity() resources.Vector {
	alive := t.NumServers() - t.NumFailedServers()
	if alive == 0 {
		return resources.Vector{}
	}
	return t.TotalCapacity().Scale(1 / float64(alive))
}

// FailUplinkFraction degrades the outbound capacity of a node by the given
// fraction (0 = no failure, 1 = fully cut), making the topology asymmetric.
// It returns an error for the root (which has no uplink) or an out-of-range
// fraction. Repeated failures compound; RecoverUplink undoes them all at
// once.
func (t *Topology) FailUplinkFraction(n *Node, fraction float64) error {
	if n.Uplink == nil {
		return fmt.Errorf("topology: node %d has no uplink", n.ID)
	}
	if fraction < 0 || fraction > 1 {
		return fmt.Errorf("topology: invalid failure fraction %v", fraction)
	}
	if n.Uplink.nominalMbps == 0 {
		n.Uplink.nominalMbps = n.Uplink.CapacityMbps
	}
	n.Uplink.CapacityMbps *= 1 - fraction
	return nil
}

// FailUplink cuts a node's outbound link entirely — a ToR/aggregation
// switch loss or a severed cable isolates the subtree from the rest of the
// fabric.
func (t *Topology) FailUplink(n *Node) error {
	return t.FailUplinkFraction(n, 1)
}

// RecoverUplink restores a previously failed or degraded uplink to its
// exact pre-failure capacity. Recovering a healthy uplink is a no-op; the
// root (which has no uplink) is an error, mirroring the failure setters.
func (t *Topology) RecoverUplink(n *Node) error {
	if n.Uplink == nil {
		return fmt.Errorf("topology: node %d has no uplink", n.ID)
	}
	if n.Uplink.nominalMbps > 0 {
		n.Uplink.CapacityMbps = n.Uplink.nominalMbps
	}
	return nil
}

// ensureFaultState lazily allocates the failure bookkeeping so topologies
// that never see a fault pay nothing.
func (t *Topology) ensureFaultState() {
	if t.failedServer == nil {
		t.failedServer = make([]bool, t.NumServers())
	}
	if t.nominalCapacity == nil {
		t.nominalCapacity = append([]resources.Vector(nil), t.Capacity...)
	}
}

// FailServer takes a server down: its capacity drops to zero (no policy
// can place anything there) and its NIC uplink is cut. Failing an already
// failed server is a no-op, so correlated fault schedules compose.
func (t *Topology) FailServer(id int) error {
	if id < 0 || id >= t.NumServers() {
		return fmt.Errorf("topology: server %d outside [0, %d)", id, t.NumServers())
	}
	t.ensureFaultState()
	if t.failedServer[id] {
		return nil
	}
	t.failedServer[id] = true
	t.Capacity[id] = resources.Vector{}
	return t.FailUplink(t.ServerNode[id])
}

// RecoverServer brings a server back: capacity and NIC link return to
// their exact pre-failure values. It also clears any ThrottleServer
// degradation, and is a no-op on a healthy, unthrottled server.
func (t *Topology) RecoverServer(id int) error {
	if id < 0 || id >= t.NumServers() {
		return fmt.Errorf("topology: server %d outside [0, %d)", id, t.NumServers())
	}
	if t.failedServer == nil && t.nominalCapacity == nil {
		return nil // never failed anything
	}
	t.ensureFaultState()
	t.failedServer[id] = false
	t.Capacity[id] = t.nominalCapacity[id]
	return t.RecoverUplink(t.ServerNode[id])
}

// ThrottleServer models a straggler: the server stays up but delivers only
// `factor` of its healthy capacity (thermal throttling, a failing disk, a
// noisy neighbor on shared infrastructure). factor must be in (0, 1];
// RecoverServer (or ThrottleServer with factor 1) restores full capacity.
// Throttling a failed server is an error — it has no capacity to scale.
func (t *Topology) ThrottleServer(id int, factor float64) error {
	if id < 0 || id >= t.NumServers() {
		return fmt.Errorf("topology: server %d outside [0, %d)", id, t.NumServers())
	}
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("topology: throttle factor %v outside (0, 1]", factor)
	}
	t.ensureFaultState()
	if t.failedServer[id] {
		return fmt.Errorf("topology: server %d is failed; recover it before throttling", id)
	}
	t.Capacity[id] = t.nominalCapacity[id].Scale(factor)
	return nil
}

// ServerFailed reports whether FailServer took the server down.
func (t *Topology) ServerFailed(id int) bool {
	return t.failedServer != nil && id >= 0 && id < len(t.failedServer) && t.failedServer[id]
}

// NumFailedServers counts servers currently down.
func (t *Topology) NumFailedServers() int {
	n := 0
	for _, f := range t.failedServer {
		if f {
			n++
		}
	}
	return n
}

// FailedServers lists the down servers in ascending id order.
func (t *Topology) FailedServers() []int {
	var out []int
	for id, f := range t.failedServer {
		if f {
			out = append(out, id)
		}
	}
	return out
}

// NodeByID returns the node with the given ID, or nil. IDs are assigned by
// the builders and are stable for a given topology shape, which lets fault
// schedules name link/rack targets by value.
func (t *Topology) NodeByID(id int) *Node {
	for _, n := range t.nodes {
		if n.ID == id {
			return n
		}
	}
	return nil
}

// IsSymmetric reports whether all subtrees at every level have equal
// outbound capacity and all servers share one capacity vector.
func (t *Topology) IsSymmetric() bool {
	byLevel := make(map[Level]float64)
	seen := make(map[Level]bool)
	for _, n := range t.nodes {
		if n.Uplink == nil {
			continue
		}
		if !seen[n.Level] {
			byLevel[n.Level] = n.Uplink.CapacityMbps
			seen[n.Level] = true
		} else if byLevel[n.Level] != n.Uplink.CapacityMbps {
			return false
		}
	}
	for _, c := range t.Capacity[1:] {
		if c != t.Capacity[0] {
			return false
		}
	}
	return true
}

// Clone deep-copies the topology (links, capacities); useful for what-if
// failure experiments.
func (t *Topology) Clone() *Topology {
	c := &Topology{
		Name:       t.Name,
		Capacity:   append([]resources.Vector(nil), t.Capacity...),
		Server:     append([]power.ServerModel(nil), t.Server...),
		ServerNode: make([]*Node, len(t.ServerNode)),
	}
	if t.failedServer != nil {
		c.failedServer = append([]bool(nil), t.failedServer...)
	}
	if t.nominalCapacity != nil {
		c.nominalCapacity = append([]resources.Vector(nil), t.nominalCapacity...)
	}
	var cloneNode func(n *Node, parent *Node) *Node
	cloneNode = func(n *Node, parent *Node) *Node {
		nn := &Node{
			ID:        n.ID,
			Level:     n.Level,
			Parent:    parent,
			ServerIDs: append([]int(nil), n.ServerIDs...),
			Switches:  append([]SwitchGroup(nil), n.Switches...),
			ServerID:  n.ServerID,
		}
		if n.Uplink != nil {
			l := *n.Uplink
			nn.Uplink = &l
		}
		for _, ch := range n.Children {
			nn.Children = append(nn.Children, cloneNode(ch, nn))
		}
		c.nodes = append(c.nodes, nn)
		if nn.IsServer() {
			c.ServerNode[nn.ServerID] = nn
		}
		return nn
	}
	c.Root = cloneNode(t.Root, nil)
	return c
}
