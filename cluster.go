package pslocal

// cluster.go re-exports the cluster gateway (internal/cluster): a
// reverse proxy fronting a fleet of cfserve backends, routing
// /v1/reduce, /v1/maxis and /v1/jobs traffic by cache affinity over a
// consistent-hash ring keyed on the instance cache key (InstanceKey —
// the same sha256 content hash the Solver's parsed-instance cache
// uses). Repeated submissions of one instance land on the same backend
// and hit its cache; the gateway forwards the precomputed key in
// HeaderInstanceKey so the backend's keyed readers skip re-hashing.
//
//	gw, err := pslocal.NewGateway(pslocal.GatewayConfig{
//		Backends: []string{"http://node1:8355", "http://node2:8355"},
//		Policy:   pslocal.PolicyAffinity,
//	})
//	go gw.Run(ctx)                       // health prober
//	http.ListenAndServe(":8360", gw)     // gw is an http.Handler
//
// Backends are probed at ProbeConfig.Path (cfserve's /readyz, which a
// draining node answers 503): consecutive failures eject, ejected
// backends re-probe under exponential backoff, and failed idempotent
// requests retry against the next ring candidates. cmd/cfgate is the
// CLI wrapper; DESIGN.md ("Cluster mode") records the design.

import "pslocal/internal/cluster"

type (
	// Gateway routes requests across a set of cfserve backends:
	// construct with NewGateway, start the health prober with
	// [Gateway.Run], and serve it as an http.Handler. Safe for
	// concurrent use.
	Gateway = cluster.Gateway
	// GatewayConfig configures a Gateway (backends, routing policy,
	// ring replicas, retry budget, body cap, probe settings).
	GatewayConfig = cluster.Config
	// BackendHealth is the prober's view of one backend.
	BackendHealth = cluster.BackendHealth
	// RoutingPolicy selects how the gateway picks a backend
	// (PolicyAffinity, PolicyRoundRobin, PolicyLeastLoaded).
	RoutingPolicy = cluster.Policy
	// ProbeConfig configures backend health probing.
	ProbeConfig = cluster.ProbeConfig
	// HashRing is the consistent-hash ring behind affinity routing.
	HashRing = cluster.Ring
)

// Routing policies.
const (
	PolicyAffinity    = cluster.PolicyAffinity
	PolicyRoundRobin  = cluster.PolicyRoundRobin
	PolicyLeastLoaded = cluster.PolicyLeastLoaded
)

// Gateway protocol headers.
const (
	// HeaderInstanceKey carries the precomputed instance cache key from
	// gateway to backend; cfserve's keyed readers honour it and skip
	// re-hashing the body. Trusted: only a gateway that derived the key
	// from the same bytes should set it.
	HeaderInstanceKey = cluster.HeaderInstanceKey
	// HeaderBackend reports which backend served a proxied request.
	HeaderBackend = cluster.HeaderBackend
)

// NewGateway validates cfg and builds a Gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) { return cluster.New(cfg) }

// NewHashRing builds a consistent-hash ring over the backend names with
// the given virtual-node count per backend (< 1 selects the default).
func NewHashRing(names []string, replicas int) *HashRing { return cluster.NewRing(names, replicas) }

// ParseRoutingPolicy maps a flag spelling (affinity|round-robin|
// least-loaded, "" = affinity) onto a RoutingPolicy.
func ParseRoutingPolicy(s string) (RoutingPolicy, bool) { return cluster.ParsePolicy(s) }
