// Package mrclone is a Go reproduction of "Task-Cloning Algorithms in a
// MapReduce Cluster with Competitive Performance Bounds" (Huanle Xu and
// Wing Cheong Lau, ICDCS 2015).
//
// The package provides:
//
//   - SRPTMS+C, the paper's online task-cloning scheduler, together with the
//     offline bulk-arrival algorithm and the Mantri, SCA, Fair, and SRPT
//     baselines, all behind one Scheduler interface;
//   - a time-slotted MapReduce cluster simulator with Map→Reduce precedence
//     and min-of-copies cloning semantics (Section III of the paper);
//   - a synthetic Google-trace generator calibrated to the paper's Table II;
//   - a statistical-distribution library (internal/dist) with the paper's
//     heavy-tailed workload models — Pareto, bounded Pareto, lognormal, and
//     the closed-form Pareto cloning-speedup — plus exponential, Weibull,
//     empirical (trace-fitted), and mixture families for scenario diversity,
//     all sampled from seeded deterministic streams;
//   - a parallel experiment-orchestration subsystem (internal/runner) that
//     expresses a study as a run matrix — schedulers × sweep points × seed
//     replicates — and executes its cells on a bounded worker pool with
//     deterministic per-cell seed derivation, so results and artifacts are
//     byte-identical at any parallelism level (exported as RunMatrix with
//     WithParallelism / WithProgress / WithRawResults);
//   - the full experiment harness regenerating every figure and table of the
//     paper's evaluation plus numerical checks of both theorems, all running
//     on the matrix runner;
//   - a simulation-as-a-service subsystem (internal/service, served by
//     cmd/mrserved): canonical versioned spec serialization with a
//     deterministic, stable content hash (internal/service/spec), a bounded
//     FIFO job queue feeding a worker pool of matrix runs, single-flight
//     deduplication plus a byte-budgeted, TTL-expiring content-addressed
//     result cache — sound because equal specs produce byte-identical
//     artifacts — and an HTTP/JSON API with Server-Sent-Events progress
//     streaming (exported as NewService / ParseServiceSpec / ServiceSpec);
//   - a durable persistence layer for that service (internal/store, enabled
//     via NewPersistentService or mrserved's -data-dir): a crash-atomic
//     disk-backed artifact store keyed by the spec hash plus an append-only
//     job log, so restarts begin with a warm cache and visible job history,
//     with corrupt entries quarantined and retention-driven garbage
//     collection of old jobs and expired artifacts;
//   - cell-level content addressing on top of that store: every
//     (scheduler, point, replicate) cell persists under a hash of the
//     single-cell projection of its spec, so overlapping matrices recompute
//     only the cells they don't share, interrupted matrices are requeued on
//     restart and refill from persisted cells, and clients watch the
//     cached/simulated split through streaming "cells" events;
//   - a sharded multi-node tier for that service (internal/ring,
//     internal/gateway, served by cmd/mrgated): a consistent-hash ring over
//     spec content hashes (virtual nodes, deterministic order-independent
//     placement, replica lists for failover) and a stateless reverse-proxy
//     gateway that routes submissions to the shard owning their hash — so
//     the shard-local single-flight table becomes cluster-wide dedup —
//     fails over to the next ring replica when a shard is down, namespaces
//     job IDs by shard, and aggregates pool health and metrics; proven by a
//     multi-node e2e and chaos-test harness in internal/gateway;
//   - multi-tenant admission control for that service (internal/tenant,
//     enabled via mrserved's -tenants): static API-token authentication
//     mapping requests to named tenants with per-tenant quotas and
//     token-bucket rate limits, a worker-free fast path assembling
//     fully-cached matrices straight from persisted cells, and pluggable
//     dequeue policies that dogfood the paper's schedulers on the
//     service's own queue — a weighted-fair lottery across tenant
//     backlogs and shortest-remaining-work-first sized by uncached cells
//     (exported as ParseTenants / QueuePolicy / SubmitToken);
//   - a small real in-process MapReduce engine whose speculative-execution
//     policy is pluggable with the same strategies.
//
// # The engine
//
// The cluster simulator is a discrete-event engine with slot-exact
// semantics. Time advances from one event to the next, job arrivals
// (a cursor over the arrival-sorted specs) and earliest copy completions,
// so empty slots are never visited. Completions wait in a calendar that is
// a timing wheel of one-slot buckets spanning the next 8,192 slots, with a
// binary heap for the few tasks finishing later; within a slot, tasks
// complete in launch-sequence order. The paper's event-driven schedulers
// (SRPTMS+C, SCA, Fair, SRPT, offline, Dolly) are invoked only when
// launchable work exists. The straggler-detection baselines (Mantri, LATE)
// are also invoked on every arrival and completion and on wake-up timers
// they arm: progress is linear in the simulator, so Mantri knows the next
// check tick at which a task can qualify for a backup and LATE solves for
// the first slot at which a task can fall below its phase mean. Workload
// draws are batched per launch, and a bounded-Pareto sampler built by its
// constructor holds its exponent split and moments precomputed
// (bit-identical to math.Pow and the closed forms); the per-copy
// bookkeeping is pointer-free pooled memory, so the hot path does not
// allocate. Each run also materializes its jobs and tasks in slabs of a
// workspace recycled from earlier runs (the calendar, alive set and
// scratch come with it), so a runner worker simulating cell after cell
// hands the garbage collector almost nothing. The price is a
// lifetime rule: an engine runs once, and the *job.Job and *job.Task
// values a custom scheduler sees are valid only during that run — it must
// not keep them for the next one. The event loop and the naive
// slot-by-slot reference loop produce identical Results bit for bit —
// pinned for every registered scheduler by the equivalence harness in
// internal/cluster, and for Mantri and LATE also against full-scan
// reference implementations kept in test code — and a CI benchmark gate
// (cmd/benchgate against BENCH_BASELINE.json) holds the engine's cost per
// cell for SRPTMS+C, SCA, Mantri and LATE, and a cold event-sweep matrix
// through the runner, in time, allocations and bytes.
//
// # Quick start
//
//	params := mrclone.GoogleTraceParams()
//	params.Jobs = 500
//	tr, err := mrclone.GenerateTrace(params)
//	// handle err
//	sim, err := mrclone.NewSimulation(tr,
//		mrclone.WithMachines(1000),
//		mrclone.WithScheduler("srptms+c"),
//		mrclone.WithSeed(42))
//	// handle err
//	res, err := sim.Run()
//	// handle err
//	summary, err := mrclone.Summarize(res)
//	// handle err
//	fmt.Printf("weighted avg flowtime: %.1f s\n", summary.WeightedFlowtime)
//
// See the examples/ directory for runnable programs and cmd/mrexperiments
// for the paper's tables and figures.
package mrclone
