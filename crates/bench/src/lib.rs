//! # concord-bench — benchmark harness and experiment binaries
//!
//! This crate regenerates every result of the paper's evaluation section
//! (§IV; each binary's module docs name the figure or claim it reproduces
//! and print the paper's number beside the measured one):
//!
//! | Binary | Experiment |
//! |---|---|
//! | `exp_fig1` | FIG1 — the stale-read window model (analytic vs Monte-Carlo) |
//! | `exp_harmony` | EXP-A1/A2 — Harmony vs static eventual/strong on Grid'5000-like and EC2-like platforms |
//! | `exp_cost_breakdown` | EXP-B1 — consistency impact on the monetary bill (per-level sweep) |
//! | `exp_efficiency_samples` | EXP-B2a — consistency-cost efficiency under different access patterns |
//! | `exp_bismar` | EXP-B2b — Bismar vs static levels |
//! | `exp_behavior` | EXP-C — application behavior modeling |
//! | `exp_faults` | EXP-F — adaptive policies under a scripted outage (open-loop load, crash/partition/degradation) |
//!
//! These binaries reproduce results; they time nothing. Performance — wall
//! clock end to end and nanoseconds per layer, with its methodology — is
//! measured by the one harness in `benchmark/` (see `benchmark/README.md`).
//!
//! Every binary runs through the shared harness in [`sweep`] and accepts
//! `--scale <f64>` (in [1e-5, 1], default 0.002; `--cluster-scale`, in
//! [0.01, 1], default 0.25) so the full-size paper setups can also be
//! simulated when time allows: `--scale 1.0` reproduces the paper's
//! operation counts. A flag whose value is missing, unparsable or out of
//! range stops the binary with `--flag <v>: expected …`. The cluster
//! experiments additionally take `--seeds <n>` (multi-seed sweeps with 95%
//! confidence intervals), `--threads <n>` (pool size), `--arrival
//! closed:<clients>|poisson:<ops/s>|uniform:<ops/s>` (arrival-mode override),
//! `--workload a..f` (YCSB mix override, including the latest-distribution D
//! and short-scan E presets), `--partitioner hash|ordered` (placement
//! mode: token-ring hash placement or contiguous key-range ownership with
//! coverage-faithful scans), `--repair off|hints|anti-entropy|full`
//! (repair plane, below) and `--shards <n>` (conservative-PDES sharded
//! engine, below — each shard count a deterministic universe, byte-identical
//! at any thread count).
//!
//! ## Scenarios: arrival modes and fault scripts
//!
//! Every experiment point executes a `concord_core::Scenario` through the
//! one scenario driver (`AdaptiveRuntime::run_scenario`): a **closed loop**
//! (N clients, each issuing on completion — the paper's YCSB setup and the
//! default) or an **open loop** (a pre-sorted Poisson/uniform arrival
//! schedule bulk-loaded through `Cluster::submit_batch`, so the offered
//! load stays fixed while the cluster degrades), plus a **fault script** —
//! a list of `{at, action}` entries applied at their scripted offsets,
//! interleaved with the policy's adaptation epochs. Actions cover
//! `CrashNode`/`RecoverNode` (ring reconfiguration onto the survivors),
//! `NodeDown`/`NodeUp` (transient outage, ring untouched),
//! `PartitionDcs`/`HealDcs` (messages between the pair lost in transit) and
//! `DegradeLink`/`RestoreLink` (per-link-class delay multipliers). The
//! *fault-script format* is simply the serde serialization of those types:
//!
//! ```json
//! { "arrival": { "OpenLoopPoisson": { "ops_per_sec": 2000.0 } },
//!   "faults": [
//!     { "at": 1500000, "action": { "CrashNode": 1 } },
//!     { "at": 5000000, "action": { "PartitionDcs": [0, 1] } },
//!     { "at": 7000000, "action": { "HealDcs": [0, 1] } } ] }
//! ```
//!
//! (offsets in µs from the run start). Scenarios are data, so `(arrival ×
//! topology × fault-script × seed)` grids run through the same `Sweep`
//! machinery as policy sweeps, with the same contract: fault injection is
//! deterministic per seed, and per-seed reports stay byte-identical at any
//! thread count (`exp_faults` asserts this on every run, as do the
//! fault-scenario golden digests in
//! `crates/cluster/tests/golden_determinism.rs` and the 1/2/4/8-thread
//! invariance tests in `crates/bench/tests/parallel_sweep.rs`). Timeouts
//! can be retried (`ClusterConfig::retry_on_timeout`), with every re-issue
//! accounted in the report's `retries` column.
//!
//! ## The repair plane: `--repair off|hints|anti-entropy|full`
//!
//! By default a faulted run heals only incidentally: divergence left by an
//! outage lingers until ordinary writes happen to overwrite it, and
//! `exp_faults` shows the resulting post-recovery stale tail. `--repair`
//! turns on the cluster's background repair plane
//! (`ClusterConfig::repair`, `concord_cluster::RepairConfig`) for every
//! platform the harness constructs:
//!
//! * **`hints`** — hinted handoff: writes fanning out to a *down-but-in-ring*
//!   replica are queued (bounded per-destination, overflow metered and left
//!   to anti-entropy) and replayed on a timer when the node comes back.
//! * **`anti-entropy`** — background sweeps walk node pairs, compare cheap
//!   per-page version digests, and stream only the strictly-newer records
//!   of divergent pages; crash/recover reconfigurations additionally
//!   schedule targeted recovery syncs so survivors (and later the rejoined
//!   node) re-acquire the ranges that moved.
//! * **`full`** — both.
//!
//! Repair work is metered (`hints_queued`/`hints_replayed`/`hints_dropped`,
//! `repair_pages_compared`/`repair_records_streamed`, and a per-link-class
//! `repair_traffic` breakdown in every `RunReport`) and its bytes flow into
//! the billable traffic totals, so the bill prices convergence. With
//! `--repair off` (the default) the repair plane adds **zero** events, RNG
//! draws or meters — all pre-existing golden digests are byte-identical —
//! and `golden_repair_run` pins the repair-on trajectory the same way.
//! `examples/fault_injection.rs` runs the same faulted grid with repair off
//! and full and prints what repair buys (the post-outage stale tail) against
//! what it costs (the repair bytes on the bill's network line);
//! `crates/cluster/tests/repair_plane.rs` pins both directions.
//!
//! ## The sweep engine and its determinism contract
//!
//! Paper-scale evaluation is a grid — policies × platforms × seeds — and
//! every `(policy, seed)` point owns its `Cluster`/`AdaptiveRuntime`, so the
//! grid is embarrassingly parallel. [`Sweep`] declares the grid;
//! [`Sweep::run`] executes it on the vendored rayon pool (a *real*
//! thread-pool since PR 2: dynamic chunking over OS threads, results
//! recombined in input order) and [`SweepResults::summaries`] reduces across
//! seeds (mean / sample std-dev / normal-approximation 95% CI) in a
//! deterministic seed-order fold.
//!
//! The contract, pinned by `crates/bench/tests/parallel_sweep.rs` and the
//! Monte-Carlo determinism test in `concord-staleness`: **thread count is a
//! pure performance knob**. Per-seed `RunReport`s are byte-identical at 1, 2
//! and N threads, because every point derives all randomness from its own
//! seed and the pool collects results by input index, never by completion
//! order.
//!
//! ## Bulk-loaded open-loop arrivals
//!
//! Open-loop experiments know their whole arrival timeline up front:
//! `CoreWorkload::timed_ops` pairs the operation stream with a **sorted**
//! arrival schedule (monotone by construction), and
//! `Cluster::submit_batch` routes it through the event queue's O(1) bulk
//! FIFO lane instead of paying one heap push per operation — the same trick
//! PR 1's timeout lane plays, on a third lane so arrival front-running
//! cannot evict timeouts from theirs. Sortedness is *asserted*, never
//! silently repaired; delivery is byte-identical to per-op submission (both
//! lanes share one sequence counter). `Cluster::run_until` lets windowed
//! drivers drain without the clock passing the next window.
//!
//! ## Hot-path architecture
//!
//! Paper-sized runs replay millions of timed operations through the cluster
//! simulator, so the per-event cost of the substrate bounds every experiment
//! above it. The hot path is engineered to be allocation-free and
//! hash-cheap; the load-bearing pieces are:
//!
//! * **Event queue** (`concord_sim::EventQueue`): a binary heap of
//!   `(packed time‖seq key, event)` entries with the payload **inline** —
//!   simulator events are 32 bytes, so moving them during sifts costs less
//!   than a side slab's two extra random-access writes and free-list
//!   traffic per event. Timers (`schedule_timeout`) whose keys arrive in
//!   sorted order — the single constant `op_timeout` produces exactly that
//!   — append to a plain FIFO in O(1); an out-of-order timer is an ordinary
//!   heap event. All lanes share one sequence counter and every pop takes
//!   the globally smallest key, so lane routing can never reorder delivery.
//! * **Operation state** (`concord_cluster::OpSlab`): a generation-checked
//!   slab addressed directly by `OpId = generation << 32 | slot` replaces
//!   three `HashMap<OpId, _>` tables; stale ids from already-completed
//!   operations (late timeouts, straggler responses) miss on the generation
//!   compare, exactly as a map lookup of a removed key would.
//! * **Storage layout — one `PagedTable<T>` under the per-key state**: the
//!   workload generators guarantee (and assert, loudly) the *key-density
//!   contract*: record ids are dense `u64`s below the configured record
//!   count, inserts extending the space by one. Both per-event per-key
//!   tables exploit it through the **one generic paged direct-index
//!   substrate** (`concord_cluster::PagedTable<T>`): fixed 4096-slot pages
//!   allocated on first write, lookups a shift, a mask and a load, reads of
//!   never-written pages allocating nothing, and vacancy left to each
//!   caller's own sentinel. Over a paper-sized data set that load is a
//!   cache and TLB miss (~150 ns in situ, a quarter of the closed-loop
//!   benchmark run before it was hidden), so the handler that schedules
//!   the event that will touch a slot issues a cache prefetch for it
//!   (`PagedTable::prefetch`, the workspace's one `unsafe` block; the
//!   sites are listed under "Memory latency" in
//!   `crates/cluster/src/cluster/engine.rs`).
//!   Its users are the replica store
//!   (`ReplicaStore`: 16-byte slots, presence = non-zero version, no extra
//!   bits) and the staleness oracle (24-byte slots, vacancy = zero acked
//!   writes; the binary-searched bounded version history of a key lives in
//!   a side arena it enters on its first acknowledged write, so bulk load
//!   allocates nothing per key). Placement is not per-key state: a key's
//!   replica set depends only on where its ring walk starts, so
//!   `Ring::excluding` runs each walk once and `Ring::replicas_into` reads
//!   one row of `RF` node ids from a table of a few KB — per token index
//!   under `hash`, per `slice % nodes` under `ordered` — that a
//!   crash/recover reconfiguration replaces together with the ring.
//!   Direct indexing also makes YCSB-E faithful: records adjacent in id are
//!   adjacent in memory, so a range scan is one streaming pass over
//!   consecutive slots per contacted replica (`ReplicaStore::read_range`) —
//!   metered as `scan_len` storage reads and byte-weighted response
//!   traffic. Differential property tests keep what each layout replaced
//!   executable as a reference and assert identical results and meters:
//!   the hash-map store (`crates/cluster/tests/store_differential.rs`),
//!   the history-per-key oracle (`oracle_differential.rs`) and the
//!   per-lookup ring walk (`ring_table.rs`).
//! * **Pluggable partitioner — hash or ordered placement**: every cluster
//!   carries a `Partitioner` (`--partitioner hash|ordered` on every
//!   cluster-driving binary; part of `ClusterConfig`, so sweeps grid over
//!   it like any other knob). `hash` is the consistent-hash token ring
//!   (Cassandra's random partitioner): consecutive record ids scatter, so
//!   a scan's data replica returns only the subset of the range it owns —
//!   cost-faithful but coverage-partial. `ordered` is Cassandra's ordered
//!   partitioner: the dense key space is cut into contiguous 4096-key
//!   slices (aligned with the paged tables' pages), adjacent slices
//!   round-robin over nodes, and crashed nodes' slices fall to the next
//!   survivor in id order. Ordered scans are **coverage-faithful**: the
//!   coordinator splits a range at ownership boundaries, fans each segment
//!   out to its own owners at the read's consistency level, and gathers —
//!   a `scan_len` scan returns `scan_len` contiguous records
//!   (`CompletedOp::records_returned`), pinned by
//!   `crates/cluster/tests/ordered_coverage.rs` and its own golden digest
//!   (`golden_ordered_scan_run`). All pre-existing goldens are
//!   byte-identical under the default `hash` mode.
//! * **Per-operation work**: replica sets are copied from the ring's
//!   placement table into reusable scratch buffers (`Ring::replicas_into`:
//!   hash, binary search over the sorted tokens, `RF`-element copy);
//!   read-replica selection ranks
//!   candidates via a precomputed coordinator→node mean-latency table; link
//!   classes come from a precomputed `n × n` table; message and storage
//!   delays are drawn through `CompiledDelay` samplers (validation and
//!   derived constants resolved once, bit-identical draws); the
//!   contacted-replica list lives inline in the read state (`InlineVec`).
//!   Latency metrics stream into log-bucketed histograms — bounded memory,
//!   no sort per quantile.
//!
//! Fixed-seed behaviour is pinned by
//! `crates/cluster/tests/golden_determinism.rs`: any hot-path change must
//! keep those digests byte-identical (or consciously re-capture them with
//! `GOLDEN_PRINT=1` and explain why the simulation's outputs changed).
//!
//! ## The sharded execution model: `--shards <n>`
//!
//! A single big run is one event stream, and the event queue above caps it
//! at a few million events per second. `--shards <n>` (every
//! cluster-driving binary; `ClusterConfig::shards`, so sweeps can grid over
//! it) runs the cluster as the conservative parallel-discrete-event
//! decomposition of that stream.
//!
//! * **Shard map.** Nodes are ordered by `(datacenter, id)` and cut into
//!   `n` contiguous groups, so datacenters stay shard-contiguous and
//!   intra-DC traffic (the bulk of replication chatter) stays shard-local.
//!   Each shard owns an event lane; operations are **coordinator-homed** —
//!   the coordinator is pre-drawn from the control RNG at submission and
//!   the whole op lifecycle (arrival, acks, timeouts, retries) runs on the
//!   coordinator's shard, so with DC-aligned cuts every cross-shard
//!   message is a real inter-DC link crossing whose delay clears the
//!   lookahead bound.
//! * **Lookahead windows.** Shards advance in windows that run from the
//!   earliest shard event to one *lookahead* past it. The lookahead is one
//!   bound: the minimum delay any link class crossing a shard cut can
//!   produce (infimum of the delay distribution × the current degradation
//!   factor, recomputed when a fault script degrades or restores a link
//!   class). With no cross-shard link class at all, the bound falls back
//!   to the configured `op_timeout` rather than a hard-coded constant. No
//!   message sent inside a window can demand execution before the window
//!   ends, which is the classic conservative-PDES safety argument. Quiet
//!   simulated time is crossed by a single cursor **fast-forward**: the
//!   next window starts at the next event.
//! * **Parallel window execution.** Within a window, each shard's event
//!   batch runs as a task on the vendored rayon work-stealing pool
//!   (`--threads <n>` sizes it), with handler state partitioned per shard:
//!   every shard draws from its own deterministic RNG stream
//!   (`SimRng::shard_stream`), allocates op ids from its own strided slab,
//!   and streams metrics into its own sink. Versions are timestamp-packed
//!   (`(µs+1)‖seq‖shard`) so last-write-wins follows simulated time, not
//!   shard interleaving.
//! * **The window close.** Every window closes the same way, serially
//!   and in fixed shard order: staged cross-shard data-plane messages move
//!   from per-shard outbox arenas to their destination lanes, the window's
//!   write acks land in the central staleness oracle's time-indexed
//!   history, control effects (abandons, hints, resubmits) are applied,
//!   completed reads are classified against that history *as of their own
//!   issue instant*, and the window's outputs are published sorted by
//!   time. A driver therefore sees completions at window boundaries: a
//!   closed loop reacts to a completion up to one lookahead after it
//!   happened (`crates/cluster/tests/window_close.rs` checks every read's
//!   stale flag against the output stream).
//!   Sampled delays that undercut the lookahead bound are clamped to the
//!   window edge and metered (`lookahead_violations` in the `RunReport`,
//!   alongside `shards`, `shard_windows`, `cross_shard_staged`,
//!   `parallel_batches`, `fast_forwards` and `max_batch_len`;
//!   coordinator-homed routing keeps violations at zero in practice).
//!
//! **The determinism contract.** `--shards 1` runs the sequential engine
//! and stays byte-identical to every pre-existing golden digest. Each
//! shard count above 1 is its **own deterministic universe**: per-shard
//! RNG streams sample a different (equally valid) stochastic trajectory
//! than the serial stream, so outputs differ *across* shard counts while
//! the physics — staleness rates, latency distributions, traffic — stays
//! in family. What is pinned instead is that within a shard count the
//! output is a pure function of the seed: **thread count is a pure
//! performance knob**, because batches produce into per-shard sinks and
//! the window close drains them in fixed shard order regardless of which
//! worker ran what. `crates/cluster/tests/golden_determinism.rs` captures one
//! golden digest per shard count (re-capture with `GOLDEN_PRINT=1` when
//! the simulation's outputs legitimately change) and
//! `crates/cluster/tests/sharded_determinism.rs` asserts byte-identical
//! fingerprints at 1/2/4/8 worker threads for shards ∈ {1, 2, 4},
//! including a node crashing mid-window, a partition severing two shards
//! and ordered scans straddling a shard boundary. Which engine runs is
//! known to one module, `crates/cluster/src/cluster/engine.rs`: every place
//! the one-shard engine differs is a method of its two impl blocks headed
//! *Where the engines differ*, whose docs give both arms; the protocol,
//! fault, repair and resilience modules beside it call them
//! unconditionally.
//!
//! ## The resilience layer: `--hedge <ms>`, `--selection dynamic`, `--backoff`
//!
//! Gray failures — a node serving 10× slow while still answering — never
//! trip fault detection; only the tail latency shows them. The fault model
//! covers them with `SlowNode(node, factor)`/`RestoreNode(node)` (plus
//! whole-datacenter `DcDown`/`DcUp`), which multiply the node's *sampled*
//! service and response delays post-draw — the RNG stream is untouched, so
//! a slow window perturbs nothing downstream of itself. The tail-tolerant
//! client machinery that answers them
//! (`concord_cluster::ResilienceConfig`, `ClusterConfig::read_selection`)
//! has three independent knobs, each off by default:
//!
//! * **Hedged reads** (`--hedge <ms>`): every point-read attempt arms one
//!   speculative trigger on the coordinator's timer lane. If the read is
//!   still pending when it fires, the coordinator duplicates the request to
//!   the best *unused* replica (distance + health ranked; open-breaker
//!   nodes rank last as hedge of last resort; scans and reads that already
//!   contacted every replica have no target and hedge nothing). First
//!   response wins; the loser's response misses the op slab's generation
//!   check exactly like any straggler, so hedged ops can neither leak slab
//!   slots nor double-count. Hedge duplicates are metered
//!   (`hedged_requests`, `hedge_wins`, per-link-class `hedge_traffic` /
//!   `hedge_bytes` in the `RunReport`) and their bytes flow into the
//!   billable traffic totals — the bill prices the tail insurance.
//! * **Backoff retries** (`--backoff`): `retry_on_timeout` re-issues wait
//!   an exponentially growing, deterministically jittered delay
//!   (1 ms · 2^attempt capped at 100 ms, one jitter draw per backed-off
//!   retry) instead of re-issuing inline. The delays are heterogeneous by
//!   construction, so they mostly take the event queue's heap rather than
//!   its sorted timeout FIFO, which cannot reorder delivery
//!   (property-tested in `concord-sim` with exactly this shape). Counted in
//!   `backoff_retries` alongside the existing `retries`.
//! * **Health-aware replica selection** (`--selection dynamic`, also
//!   `closest|random`): the coordinator side keeps a per-node EWMA of the
//!   observed response latency *excess* over the expected round trip
//!   (distance-normalized, so a far coordinator's 26 ms observation does
//!   not poison a node for its neighbors) plus a circuit breaker —
//!   **closed** → 3 consecutive read-timeout strikes open it → **open**
//!   demotes the node behind every healthy candidate for 50 ms →
//!   **half-open** admits one probe, which either
//!   closes it (any response resets the strike count) or re-opens it.
//!   Breaker flips are counted in `breaker_opens`. Writes never strike: a
//!   write timeout implicates the consistency level, not one replica.
//!
//! With all three off (the default) the layer adds **zero** events, zero
//! RNG draws and zero meters — every pre-existing golden digest is
//! byte-identical, which is the same contract the repair plane and the
//! partitioner hold. Resilience-**on** runs are their own sampled
//! universes (hedge draws shift the shard RNG stream), pinned exactly like
//! everything else: `golden_resilience_run` captures one digest — hedge
//! and breaker counters included — per shard count ∈ {1, 2, 4}, and the
//! gray-failure scenario in `crates/cluster/tests/sharded_determinism.rs`
//! asserts byte-identical fingerprints at 1/2/4/8 worker threads.
//! `exp_faults` accepts all three flags, prints per-policy hedge/backoff/
//! breaker columns when any is set, and always runs a self-calibrated
//! gray-failure leg (one node 10× slow mid-run, hedging off vs on vs the
//! full layer) emitting a greppable `HEDGE_DATAPOINT` line;
//! `examples/fault_injection.rs` walks the same comparison with prose.
//! Serde backcompat: pre-resilience `RunReport` JSON and fault scripts
//! parse unchanged (`#[serde(default)]` on every new field; pinned by the
//! backcompat tests in `concord-core`).

#![deny(unsafe_code)]

pub mod sweep;

pub use sweep::{
    parse_arrival, render_summary_table, run_grid, Harness, PolicySummary, SeedStat, Sweep,
    SweepResults,
};

use concord_workload::WorkloadConfig;

/// Workload/cluster scale parsed from the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Fraction of the paper's operation/record counts to run.
    pub workload: f64,
    /// Fraction of the paper's node counts to simulate.
    pub cluster: f64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            workload: 0.002,
            cluster: 0.25,
        }
    }
}

/// Make a paper workload lighter-weight for simulation: single 1 KB field
/// (the record size YCSB uses by default) instead of ten 100 B fields.
pub fn slim(mut cfg: WorkloadConfig) -> WorkloadConfig {
    cfg.field_count = 1;
    cfg.field_length = 1_000;
    cfg
}

/// Print a labelled paper-vs-measured comparison line.
pub fn compare_line(label: &str, paper: &str, measured: String) {
    println!("  {label:<58} paper: {paper:<22} measured: {measured}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(args: &[&str]) -> Harness {
        Harness::from_args(args.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn scale_parsing_defaults_and_overrides() {
        assert_eq!(harness(&["exp"]).scale, Scale::default());
        let s = harness(&["exp", "--scale", "0.01", "--cluster-scale", "0.5"]).scale;
        assert!((s.workload - 0.01).abs() < 1e-12);
        assert!((s.cluster - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "--scale oops: expected a fraction")]
    fn unparsable_scale_fails_loudly() {
        harness(&["exp", "--scale", "oops"]);
    }

    #[test]
    fn platform_parsing() {
        assert_eq!(harness(&["exp"]).platform, "g5k");
        assert_eq!(harness(&["exp", "--platform", "ec2"]).platform, "ec2");
    }

    #[test]
    fn slim_keeps_record_size_at_1kb() {
        let cfg = slim(concord_workload::presets::ycsb_a());
        assert_eq!(cfg.record_size(), 1_000);
        assert!(cfg.validate().is_ok());
    }
}
