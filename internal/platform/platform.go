// Package platform models heterogeneous multi-cluster computing platforms:
// sets of clusters, each with homogeneous processors of a given speed,
// interconnected by a LAN whose topology is either a single shared switch or
// one switch per cluster joined by a backbone.
//
// The concrete platforms used in the paper's evaluation (four multi-cluster
// subsets of Grid'5000, Table 1 of the paper) are provided as presets.
//
// Concurrency: a Platform and its Clusters and Links are immutable after
// New (the presets return fresh instances per call) and safe to share
// read-only across any number of concurrent scheduling runs — the
// foundation of the service and experiment fan-outs.
package platform

import (
	"fmt"
	"strings"

	"ptgsched/internal/sim"
)

// Network constants used for all platforms. The paper describes the
// interconnect qualitatively (LAN, gigabit-class); these values are the
// usual Grid'5000-era numbers and are shared by every strategy under test,
// so they do not bias strategy comparisons.
const (
	// ClusterLinkBandwidth is the capacity of a cluster's uplink to its
	// switch, in bytes/s (10 Gb/s aggregated cluster uplink).
	ClusterLinkBandwidth = 1.25e9
	// BackboneBandwidth is the capacity of the inter-switch backbone used
	// by sites where each cluster has its own switch, in bytes/s.
	BackboneBandwidth = 1.25e9
	// IntraClusterBandwidth is the effective bandwidth available for a data
	// redistribution that stays inside one cluster, in bytes/s (gigabit
	// NICs, several in parallel during a redistribution).
	IntraClusterBandwidth = 5e8
	// LANLatency is the one-hop network latency in seconds.
	LANLatency = 1e-4
)

// ClusterSpec describes a homogeneous cluster: its name, processor count and
// per-processor speed in GFlop/s.
type ClusterSpec struct {
	Name  string
	Procs int
	Speed float64 // GFlop/s per processor
}

// Cluster is an instantiated cluster inside a Platform.
type Cluster struct {
	Name  string
	Procs int
	Speed float64 // GFlop/s per processor

	// Index is the position of the cluster within its platform.
	Index int

	// Uplink connects the cluster to its switch; it carries all traffic
	// entering or leaving the cluster.
	Uplink *sim.Link
	// Intra carries data redistributions that stay within the cluster.
	Intra *sim.Link
}

// Power returns the aggregate processing power of the cluster in GFlop/s.
func (c *Cluster) Power() float64 { return float64(c.Procs) * c.Speed }

// String implements fmt.Stringer.
func (c *Cluster) String() string {
	return fmt.Sprintf("%s(%d procs @ %.3f GFlop/s)", c.Name, c.Procs, c.Speed)
}

// Platform is a multi-cluster site. If SharedSwitch is true all clusters
// hang off one switch (inter-cluster routes use only the two cluster
// uplinks); otherwise each cluster has its own switch and inter-cluster
// routes additionally traverse the shared Backbone link, creating a
// different contention regime (cf. §2 of the paper: Rennes and Lille share
// a switch, Nancy and Sophia do not).
type Platform struct {
	Name         string
	Clusters     []*Cluster
	SharedSwitch bool
	Backbone     *sim.Link // nil when SharedSwitch

	// routes[src][dst] is the precomputed route between every cluster
	// pair. The simulator asks for a route once per data redistribution,
	// so New materializes the (few × few) table up front and Route
	// becomes a lookup of a shared read-only slice.
	routes [][][]*sim.Link
}

// New assembles a platform from cluster specifications. It panics on
// malformed specs (no clusters, non-positive counts or speeds): platform
// descriptions are static configuration, so failing fast is appropriate.
func New(name string, sharedSwitch bool, specs ...ClusterSpec) *Platform {
	if len(specs) == 0 {
		panic("platform: no clusters given")
	}
	p := &Platform{Name: name, SharedSwitch: sharedSwitch}
	for i, s := range specs {
		if s.Procs <= 0 {
			panic(fmt.Sprintf("platform: cluster %q has %d processors", s.Name, s.Procs))
		}
		if s.Speed <= 0 {
			panic(fmt.Sprintf("platform: cluster %q has speed %g", s.Name, s.Speed))
		}
		c := &Cluster{
			Name:   s.Name,
			Procs:  s.Procs,
			Speed:  s.Speed,
			Index:  i,
			Uplink: sim.NewLink(name+"/"+s.Name+"/uplink", ClusterLinkBandwidth, LANLatency),
			Intra:  sim.NewLink(name+"/"+s.Name+"/intra", IntraClusterBandwidth, LANLatency),
		}
		p.Clusters = append(p.Clusters, c)
	}
	if !sharedSwitch {
		p.Backbone = sim.NewLink(name+"/backbone", BackboneBandwidth, LANLatency)
	}
	p.routes = make([][][]*sim.Link, len(p.Clusters))
	for i, src := range p.Clusters {
		p.routes[i] = make([][]*sim.Link, len(p.Clusters))
		for j, dst := range p.Clusters {
			p.routes[i][j] = p.buildRoute(src, dst)
		}
	}
	return p
}

// TotalProcs returns the number of processors across all clusters.
func (p *Platform) TotalProcs() int {
	n := 0
	for _, c := range p.Clusters {
		n += c.Procs
	}
	return n
}

// TotalPower returns the aggregate processing power in GFlop/s. This is the
// denominator of the paper's resource constraint β.
func (p *Platform) TotalPower() float64 {
	w := 0.0
	for _, c := range p.Clusters {
		w += c.Power()
	}
	return w
}

// Heterogeneity returns the platform heterogeneity as defined in §2 of the
// paper: the ratio between the fastest and slowest processor speeds,
// expressed as the excess over 1 (e.g. 0.202 for Lille).
func (p *Platform) Heterogeneity() float64 {
	min, max := p.Clusters[0].Speed, p.Clusters[0].Speed
	for _, c := range p.Clusters[1:] {
		if c.Speed < min {
			min = c.Speed
		}
		if c.Speed > max {
			max = c.Speed
		}
	}
	return max/min - 1
}

// Route returns the sequence of links traversed by a data redistribution
// from cluster src to cluster dst. Within one cluster the route is the
// cluster's intra link; between clusters it is the two uplinks, plus the
// backbone on per-cluster-switch sites. The returned slice is shared and
// read-only: New precomputes all pairs, so the simulation's per-transfer
// route lookups allocate nothing.
func (p *Platform) Route(src, dst *Cluster) []*sim.Link {
	if p.routes != nil {
		return p.routes[src.Index][dst.Index]
	}
	return p.buildRoute(src, dst)
}

func (p *Platform) buildRoute(src, dst *Cluster) []*sim.Link {
	if src == dst {
		return []*sim.Link{src.Intra}
	}
	if p.SharedSwitch {
		return []*sim.Link{src.Uplink, dst.Uplink}
	}
	return []*sim.Link{src.Uplink, p.Backbone, dst.Uplink}
}

// TransferTime estimates the contention-free time in seconds to move the
// given number of bytes from src to dst: route latency plus bytes over the
// bottleneck bandwidth. The mapper uses this estimate; the simulator then
// charges the actual contended time.
func (p *Platform) TransferTime(src, dst *Cluster, bytes float64) float64 {
	if bytes < 0 {
		panic(fmt.Sprintf("platform: negative transfer size %g", bytes))
	}
	route := p.Route(src, dst)
	lat := 0.0
	bw := route[0].Capacity
	for _, l := range route {
		lat += l.Latency
		if l.Capacity < bw {
			bw = l.Capacity
		}
	}
	return lat + bytes/bw
}

// Reference describes the homogeneous reference cluster used by
// HCPA-style allocation on heterogeneous platforms (§4 of the paper, after
// [9]): allocations are first computed on a virtual cluster whose
// processors all run at the platform's average speed, then translated into
// concrete per-cluster allocations of equivalent power at mapping time.
type Reference struct {
	Procs int     // total processors of the platform
	Speed float64 // GFlop/s of one reference processor (platform average)
}

// ReferenceCluster derives the reference cluster of the platform.
func (p *Platform) ReferenceCluster() Reference {
	return Reference{
		Procs: p.TotalProcs(),
		Speed: p.TotalPower() / float64(p.TotalProcs()),
	}
}

// Power returns the aggregate power of the reference cluster in GFlop/s,
// which equals the platform's total power by construction.
func (r Reference) Power() float64 { return float64(r.Procs) * r.Speed }

// String implements fmt.Stringer.
func (p *Platform) String() string {
	var b strings.Builder
	topo := "per-cluster switches"
	if p.SharedSwitch {
		topo = "shared switch"
	}
	fmt.Fprintf(&b, "%s [%d procs, %.1f GFlop/s, heterogeneity %.1f%%, %s]",
		p.Name, p.TotalProcs(), p.TotalPower(), p.Heterogeneity()*100, topo)
	return b.String()
}
