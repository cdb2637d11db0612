// Package obs is the repository's dependency-free observability core:
// sharded atomic counters, gauges (stored and callback-backed),
// fixed-bucket histograms, and a labeled registry with point-in-time
// snapshots and Prometheus-style text exposition. The registry is the
// one record of what an instrumented component did: nothing keeps a
// second copy of a count beside it.
//
// The package exists to make the sponge hot paths measurable without
// perturbing them: every mutation on a pre-registered handle is a plain
// atomic operation (no map lookups, no allocation, no locks on the
// counter path), and nothing in here touches the simulator — recording
// a metric charges no virtual time and consumes no randomness, so
// instrumented runs stay bit-identical to uninstrumented ones.
package obs
