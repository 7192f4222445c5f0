package cluster

// metrics.go is the gateway's metrics surface: one obs.Registry renders
// GET /metrics in the Prometheus text format. cfgate_info carries the
// routing policy as a label; per-backend series — proxy-attempt
// latency, retried attempts, health, ejections, in-flight and proxied
// totals — are labeled by backend URL and either hit typed handles on
// the proxy path or read through func-backed series at scrape time.

import (
	"pslocal/internal/obs"
)

// gatewayMetrics owns the registry and the hot-path handles.
type gatewayMetrics struct {
	reg *obs.Registry

	requests *obs.Counter // all requests, any endpoint
	rerouted *obs.Counter // attempts routed past the first candidate
	failures *obs.Counter // requests answered 4xx/5xx or given up on

	// proxy times each upstream attempt; retries counts attempts a
	// backend failed or declined (the request moved to the next
	// candidate). Both are per backend.
	proxy   map[string]*obs.Histogram
	retries map[string]*obs.Counter
}

// newGatewayMetrics builds the registry over the gateway's fixed backend
// set; the func-backed series read health, load and proxied state at
// scrape time.
func newGatewayMetrics(g *Gateway) *gatewayMetrics {
	reg := obs.NewRegistry()
	m := &gatewayMetrics{
		reg:      reg,
		requests: reg.Counter("cfgate_requests_total", "HTTP requests received, any endpoint."),
		rerouted: reg.Counter("cfgate_rerouted_total", "Proxy attempts routed past the first candidate."),
		failures: reg.Counter("cfgate_failures_total", "Requests answered 4xx/5xx or exhausted every candidate."),
		proxy:    make(map[string]*obs.Histogram),
		retries:  make(map[string]*obs.Counter),
	}
	reg.Gauge("cfgate_info", "Gateway configuration; the routing policy is the policy label.",
		obs.L("policy", string(g.cfg.Policy))).Set(1)
	for _, b := range g.ring.Backends() {
		backend := b
		label := obs.Label{Key: "backend", Value: backend}
		m.proxy[backend] = reg.Histogram("cfgate_proxy_duration_seconds",
			"Upstream attempt latency by backend.", label)
		m.retries[backend] = reg.Counter("cfgate_backend_retries_total",
			"Attempts this backend failed or declined (the request moved on).", label)
		reg.GaugeFunc("cfgate_backend_healthy", "Whether the backend is admitted (1) or ejected (0).",
			func() float64 {
				if g.hlth.healthy(backend) {
					return 1
				}
				return 0
			}, label)
		reg.CounterFunc("cfgate_backend_ejections_total", "Healthy-to-ejected transitions.",
			func() float64 { return float64(g.hlth.snapshot()[backend].Ejections) }, label)
		reg.GaugeFunc("cfgate_backend_inflight", "Requests currently proxied to the backend.",
			func() float64 { return float64(g.loads.load(backend)) }, label)
		reg.CounterFunc("cfgate_backend_proxied_total", "Requests this backend answered.",
			func() float64 {
				g.proxiedMu.Lock()
				c, ok := g.proxied[backend]
				g.proxiedMu.Unlock()
				if !ok {
					return 0
				}
				return float64(c.Load())
			}, label)
	}
	reg.GaugeFunc("cfgate_healthy_backends", "Backends currently admitted for routing.",
		func() float64 { return float64(len(g.bal.healthyBackends())) })
	return m
}
