//! Cluster configuration.

use crate::cluster::ReplicaSelection;
use crate::consistency::ConsistencyLevel;
use crate::ring::{Partitioner, ReplicationStrategy};
use concord_sim::{DelayDistribution, NetworkModel, SimDuration, Topology};
use serde::{Deserialize, Serialize};

/// Which parts of the background repair plane are active.
///
/// Repair is **off by default**: with `Off`, the cluster performs no hint
/// bookkeeping, schedules no sweep events and draws no extra randomness, so
/// every pre-repair golden digest stays byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RepairMode {
    /// No background repair (the historical behaviour).
    #[default]
    Off,
    /// Hinted handoff only: writes that target a down replica queue a
    /// bounded hint on the coordinator, replayed when the node comes back.
    Hints,
    /// Anti-entropy only: periodic node-pair sweeps diff every key page
    /// and stream divergent records; crash/recover additionally
    /// trigger a full synchronization of the affected node.
    AntiEntropy,
    /// Both hinted handoff and anti-entropy; dropped hints fall through to
    /// the sweeps.
    Full,
}

impl RepairMode {
    /// Parse a CLI name (`off`, `hints`, `anti-entropy`, `full`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "off" => Some(RepairMode::Off),
            "hints" => Some(RepairMode::Hints),
            "anti-entropy" | "antientropy" => Some(RepairMode::AntiEntropy),
            "full" => Some(RepairMode::Full),
            _ => None,
        }
    }

    /// Short label for banners and tables.
    pub fn label(&self) -> &'static str {
        match self {
            RepairMode::Off => "off",
            RepairMode::Hints => "hints",
            RepairMode::AntiEntropy => "anti-entropy",
            RepairMode::Full => "full",
        }
    }

    /// Whether hinted handoff is active.
    pub fn hints_enabled(&self) -> bool {
        matches!(self, RepairMode::Hints | RepairMode::Full)
    }

    /// Whether anti-entropy sweeps (and recovery migration) are active.
    pub fn anti_entropy_enabled(&self) -> bool {
        matches!(self, RepairMode::AntiEntropy | RepairMode::Full)
    }
}

/// Configuration of the background repair plane (hinted handoff +
/// anti-entropy sweeps + recovery migration). See [`RepairMode`] for what
/// each mode activates. The plane's pacing and sizing are constants that
/// model Cassandra's repair path at the simulator's time scale; JSON written
/// when they were fields still loads (unknown fields are ignored).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RepairConfig {
    /// Which repair subsystems are active. Defaults to [`RepairMode::Off`].
    #[serde(default)]
    pub mode: RepairMode,
}

impl RepairConfig {
    /// Maximum hints queued per destination node; further hints are dropped
    /// (metered as `hints_dropped`) and left for anti-entropy to catch.
    pub(crate) const HINT_CAPACITY_PER_NODE: usize = 1024;
    /// Gap between successive hint replays to one recovered node (the
    /// replay is paced rather than delivered as a burst).
    pub(crate) const HINT_REPLAY_INTERVAL: SimDuration = SimDuration::from_micros(200);
    /// Gap between successive node-pair comparison events while a sweep
    /// cycle is active.
    pub(crate) const ANTI_ENTROPY_INTERVAL: SimDuration = SimDuration::from_millis(20);
    /// Byte weight of one per-page version summary exchanged during a
    /// comparison (the Merkle-ish digest message).
    pub(crate) const SUMMARY_BYTES_PER_PAGE: u32 = 32;

    /// A disabled repair plane (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// The repair plane with the given mode.
    pub fn with_mode(mode: RepairMode) -> Self {
        RepairConfig { mode }
    }
}

/// Configuration of the tail-tolerant resilience layer: hedged reads and
/// exponential retry backoff. The health bookkeeping behind
/// [`ReplicaSelection::Dynamic`] is switched by the cluster's read selection
/// and tuned by constants, as is the backoff schedule; JSON written when
/// they were fields still loads (unknown fields are ignored).
///
/// Everything here is **off by default**: with a zero `hedge_delay` no hedge
/// timers are scheduled and with `backoff` false timed-out retries re-issue
/// immediately. A default `ResilienceConfig` therefore adds zero events and
/// zero RNG draws, keeping every pre-resilience golden digest
/// byte-identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// How long a point read's coordinator waits before issuing one
    /// speculative duplicate (digest) request to the best unused replica.
    /// [`SimDuration::ZERO`] (the default) disables hedging entirely;
    /// otherwise it must be below [`ClusterConfig::op_timeout`].
    #[serde(default)]
    pub hedge_delay: SimDuration,
    /// When true, `retry_on_timeout` re-issues wait out an exponential
    /// backoff with deterministic RNG-drawn jitter instead of re-entering
    /// the cluster immediately.
    #[serde(default)]
    pub backoff: bool,
}

impl ResilienceConfig {
    /// Backoff delay before the first re-issue; doubles per consumed retry
    /// up to [`ResilienceConfig::BACKOFF_CAP`].
    pub(crate) const BACKOFF_BASE: SimDuration = SimDuration::from_millis(1);
    /// Upper bound on the nominal (pre-jitter) backoff delay.
    pub(crate) const BACKOFF_CAP: SimDuration = SimDuration::from_millis(100);
    /// Smoothing factor of the coordinator-side latency-excess EWMA
    /// (observed response latency minus the expected round trip) used by
    /// [`ReplicaSelection::Dynamic`].
    pub(crate) const HEALTH_ALPHA: f64 = 0.2;
    /// Consecutive read-timeout strikes against a replica before its
    /// circuit breaker opens.
    pub(crate) const BREAKER_FAILURES: u32 = 3;
    /// How long an open breaker holds before transitioning to half-open
    /// (one probe allowed).
    pub(crate) const BREAKER_COOLDOWN: SimDuration = SimDuration::from_millis(50);

    /// A fully disabled resilience layer (the default).
    pub fn off() -> Self {
        Self::default()
    }

    /// Whether hedged reads are active.
    pub fn hedging_enabled(&self) -> bool {
        self.hedge_delay > SimDuration::ZERO
    }
}

/// Complete configuration of a simulated storage cluster.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Node placement into datacenters/regions.
    pub topology: Topology,
    /// Network latency model between nodes.
    pub network: NetworkModel,
    /// Replication factor.
    pub replication_factor: u32,
    /// Replica placement strategy.
    pub strategy: ReplicationStrategy,
    /// How keys map to owning nodes: the consistent-hash token ring
    /// (default, Cassandra's random partitioner) or contiguous key-range
    /// ownership (Cassandra's ordered partitioner, which makes range-scan
    /// *coverage* faithful — see [`Partitioner`]).
    #[serde(default)]
    pub partitioner: Partitioner,
    /// Virtual nodes per physical node on the ring.
    pub vnodes: u32,
    /// Default read consistency level (can be changed at runtime).
    pub read_level: ConsistencyLevel,
    /// Default write consistency level (can be changed at runtime).
    pub write_level: ConsistencyLevel,
    /// Local storage service time for a read on a replica.
    pub storage_read_latency: DelayDistribution,
    /// Local storage service time for a write on a replica.
    pub storage_write_latency: DelayDistribution,
    /// Coordinator-side timeout for gathering the required replica
    /// responses; must be positive.
    pub op_timeout: SimDuration,
    /// Whether coordinators send the full data request to every replica and
    /// repair stale replicas in the background (Cassandra's read repair).
    ///
    /// **Scan contract**: read repair fires only for point reads
    /// (`scan_len == 1`). Range scans never trigger it — matching Cassandra,
    /// where range scans do not perform blocking read repair — so a
    /// scan-heavy workload relies on asynchronous propagation and, when
    /// enabled, the background repair plane ([`RepairConfig`]) to converge
    /// replicas. Pinned by the `scans_never_trigger_read_repair` test.
    pub read_repair: bool,
    /// Background repair plane: hinted handoff, anti-entropy sweeps and
    /// recovery migration. Off by default; absent in pre-repair configs
    /// (`serde(default)` keeps them loading).
    #[serde(default)]
    pub repair: RepairConfig,
    /// Tail-tolerant resilience layer: hedged reads, retry backoff and the
    /// health bookkeeping behind [`ReplicaSelection::Dynamic`]. Off by
    /// default; absent in pre-resilience configs (`serde(default)` keeps
    /// them loading).
    #[serde(default)]
    pub resilience: ResilienceConfig,
    /// How read coordinators choose which replicas to contact. Defaults to
    /// [`ReplicaSelection::Closest`] (the historical behaviour; absent in
    /// pre-resilience configs via `serde(default)`); can be changed at
    /// runtime through [`Cluster::set_replica_selection`](crate::Cluster::set_replica_selection).
    #[serde(default)]
    pub read_selection: ReplicaSelection,
    /// How many times a timed-out operation is re-issued (fresh coordinator
    /// and fan-out, client-visible latency spanning every attempt) before it
    /// completes with [`OpStatus::Timeout`](crate::OpStatus::Timeout).
    /// 0 (the default) keeps the historical fail-fast behaviour; anything
    /// else needs the one-shard engine.
    pub retry_on_timeout: u32,
    /// Number of event-queue shards the engine partitions the cluster into
    /// (conservative-PDES sharding: nodes are grouped datacenter-contiguously
    /// into `shards` groups, each with its own event lanes and its own RNG
    /// stream, advancing in lookahead windows bounded by the minimum
    /// cross-shard link delay; window batches execute in parallel on the
    /// worker pool, and every window closes serially in fixed shard order:
    /// cross-shard traffic is delivered, reads are classified and outputs
    /// are published). **Each shard count is its own deterministic universe,
    /// byte-identical at any worker-thread count** — the golden-digest tests
    /// pin one digest per shard count and the thread-matrix tests assert
    /// thread invariance. 1 (and, for backward compatibility of serialized
    /// configs, an absent field deserializing to 0) means the sequential
    /// engine, byte-identical to the pre-sharding goldens; values above the
    /// node count are clamped to it.
    ///
    /// Faults and timeout retries need the one-shard engine: on more than
    /// one effective shard, [`FaultAction::check`](crate::FaultAction::check)
    /// rejects every fault and [`ClusterConfig::validate`] rejects a
    /// non-zero `retry_on_timeout`.
    #[serde(default)]
    pub shards: u32,
}

impl ClusterConfig {
    /// Number of storage operations a node serves concurrently; further
    /// requests queue FIFO (this is what creates saturation and the
    /// throughput differences between consistency levels).
    pub(crate) const NODE_CONCURRENCY: u32 = 32;
    /// Protocol overhead added to every replica message, in bytes.
    pub(crate) const MESSAGE_OVERHEAD_BYTES: u32 = 60;
    /// Size of a read request / ack message payload in bytes.
    pub(crate) const SMALL_MESSAGE_BYTES: u32 = 40;

    /// A small single-datacenter cluster with LAN latencies — the default for
    /// unit tests.
    pub fn lan_test(nodes: usize, replication_factor: u32) -> Self {
        ClusterConfig {
            topology: Topology::single_dc(nodes),
            network: NetworkModel::lan(),
            replication_factor,
            strategy: ReplicationStrategy::Simple,
            partitioner: Partitioner::Hash,
            vnodes: 16,
            read_level: ConsistencyLevel::One,
            write_level: ConsistencyLevel::One,
            storage_read_latency: DelayDistribution::LogNormal {
                median_ms: 0.35,
                sigma: 0.4,
            },
            storage_write_latency: DelayDistribution::LogNormal {
                median_ms: 0.25,
                sigma: 0.4,
            },
            op_timeout: SimDuration::from_secs(10),
            read_repair: false,
            repair: RepairConfig::off(),
            resilience: ResilienceConfig::off(),
            read_selection: ReplicaSelection::Closest,
            retry_on_timeout: 0,
            shards: 1,
        }
    }

    /// Effective shard count for this config's topology: 0 (an absent field
    /// in a pre-sharding serialized config) and 1 both mean unsharded, and
    /// values above the node count clamp to it (an empty shard could never
    /// receive an event, so granting it a lane would be pure overhead).
    pub fn effective_shards(&self) -> usize {
        (self.shards.max(1) as usize).min(self.topology.node_count().max(1))
    }

    /// Validate structural constraints.
    pub fn validate(&self) -> Result<(), String> {
        if self.topology.node_count() == 0 {
            return Err("cluster needs at least one node".into());
        }
        if self.replication_factor == 0 {
            return Err("replication factor must be at least 1".into());
        }
        if self.replication_factor as usize > self.topology.node_count() {
            return Err(format!(
                "replication factor {} exceeds node count {}",
                self.replication_factor,
                self.topology.node_count()
            ));
        }
        if self.topology.node_count() > (u16::MAX as usize) + 1 {
            // Node ids are packed to 16 bits inside replica-task events to
            // keep the event queue's payload entries at 32 bytes.
            return Err(format!(
                "node count {} exceeds the engine's 65536-node limit",
                self.topology.node_count()
            ));
        }
        if self.vnodes == 0 {
            return Err("vnodes must be at least 1".into());
        }
        if self.op_timeout.is_zero() {
            return Err("op_timeout must be positive".into());
        }
        if self.resilience.hedge_delay >= self.op_timeout {
            // Such a hedge could never fire before its attempt times out.
            return Err(format!(
                "resilience.hedge_delay {} must be below op_timeout {}",
                self.resilience.hedge_delay, self.op_timeout
            ));
        }
        let net = &self.network;
        for (field, delay) in [
            ("network.local", &net.local),
            ("network.intra_dc", &net.intra_dc),
            ("network.inter_dc", &net.inter_dc),
            ("network.inter_region", &net.inter_region),
            ("storage_read_latency", &self.storage_read_latency),
            ("storage_write_latency", &self.storage_write_latency),
        ] {
            delay.validate().map_err(|e| format!("{field}: {e}"))?;
        }
        let shards = self.effective_shards();
        if shards > 256 {
            // The timestamp-packed parallel version layout reserves 8 bits
            // for the allocating shard.
            return Err(format!(
                "{shards} event-lane shards exceed the engine's 256-shard limit"
            ));
        }
        if self.retry_on_timeout > 0 && shards > 1 {
            return Err(format!(
                "retry_on_timeout {} needs the one-shard engine (this cluster runs {shards} shards)",
                self.retry_on_timeout
            ));
        }
        Ok(())
    }

    /// Number of datacenters in the topology.
    pub fn dc_count(&self) -> u32 {
        self.topology.dc_count() as u32
    }

    /// Replica responses required for the given level under this config.
    pub fn required_acks(&self, level: ConsistencyLevel) -> u32 {
        level.required_acks(self.replication_factor, self.dc_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lan_test_config_is_valid() {
        let cfg = ClusterConfig::lan_test(5, 3);
        assert!(cfg.validate().is_ok());
        assert_eq!(cfg.dc_count(), 1);
        assert_eq!(cfg.required_acks(ConsistencyLevel::Quorum), 2);
        assert_eq!(cfg.required_acks(ConsistencyLevel::All), 3);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = ClusterConfig::lan_test(2, 3);
        assert!(cfg.validate().is_err(), "rf > nodes");
        cfg = ClusterConfig::lan_test(3, 0);
        assert!(cfg.validate().is_err(), "rf 0");
        cfg = ClusterConfig::lan_test(3, 2);
        cfg.vnodes = 0;
        assert!(cfg.validate().is_err());
        cfg = ClusterConfig::lan_test(300, 3);
        cfg.shards = 256;
        assert!(cfg.validate().is_ok());
        cfg.shards = 257;
        assert!(cfg.validate().is_err(), "more than 256 shards");
        // Shard counts clamp to the node count before the cap applies.
        cfg = ClusterConfig::lan_test(3, 2);
        cfg.shards = 1_000;
        assert!(cfg.validate().is_ok());
        // Timeout retries need the one-shard engine.
        cfg = ClusterConfig::lan_test(4, 3);
        cfg.retry_on_timeout = 1;
        assert!(cfg.validate().is_ok());
        cfg.shards = 2;
        assert!(cfg.validate().is_err(), "timeout retries on 2 shards");
    }

    #[test]
    #[should_panic(
        expected = "invalid cluster config: retry_on_timeout 1 needs the one-shard engine (this cluster runs 2 shards)"
    )]
    fn a_sharded_cluster_with_timeout_retries_is_never_built() {
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.retry_on_timeout = 1;
        cfg.shards = 2;
        crate::Cluster::new(cfg, 1);
    }

    #[test]
    fn validation_names_the_bad_delay_field() {
        let mut cfg = ClusterConfig::lan_test(3, 2);
        cfg.network.inter_dc = DelayDistribution::wan(-5.0, 1.0);
        let err = cfg.validate().unwrap_err();
        assert!(err.starts_with("network.inter_dc: "), "{err}");
        assert!(err.ends_with("base_ms -5 is negative"), "{err}");
        let mut cfg = ClusterConfig::lan_test(3, 2);
        cfg.storage_write_latency = DelayDistribution::LogNormal {
            median_ms: f64::NAN,
            sigma: 0.4,
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.starts_with("storage_write_latency: "), "{err}");
    }

    #[test]
    fn validation_rejects_timeouts_a_run_cannot_keep() {
        let mut cfg = ClusterConfig::lan_test(3, 2);
        cfg.op_timeout = SimDuration::ZERO;
        let err = cfg.validate().unwrap_err();
        assert!(err.starts_with("op_timeout "), "{err}");
        // A hedge must fire before its attempt times out; hedging off passes.
        let mut cfg = ClusterConfig::lan_test(3, 2);
        cfg.op_timeout = SimDuration::from_millis(50);
        cfg.resilience.hedge_delay = SimDuration::from_millis(50);
        let err = cfg.validate().unwrap_err();
        assert!(err.starts_with("resilience.hedge_delay "), "{err}");
        cfg.resilience.hedge_delay = SimDuration::MAX;
        assert!(cfg.validate().is_err(), "a saturated hedge delay");
        cfg.resilience.hedge_delay = SimDuration::from_micros(49_999);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn config_serializes() {
        let mut cfg = ClusterConfig::lan_test(4, 3);
        cfg.partitioner = Partitioner::Ordered;
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ClusterConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.replication_factor, 3);
        assert_eq!(back.topology.node_count(), 4);
        assert_eq!(back.partitioner, Partitioner::Ordered);
    }

    #[test]
    fn repair_mode_names_round_trip() {
        for (name, mode) in [
            ("off", RepairMode::Off),
            ("hints", RepairMode::Hints),
            ("anti-entropy", RepairMode::AntiEntropy),
            ("full", RepairMode::Full),
        ] {
            assert_eq!(RepairMode::from_name(name), Some(mode));
            assert_eq!(RepairMode::from_name(mode.label()), Some(mode));
        }
        assert_eq!(RepairMode::from_name("merkle"), None);
        assert!(RepairMode::Full.hints_enabled());
        assert!(RepairMode::Full.anti_entropy_enabled());
        assert!(RepairMode::Hints.hints_enabled());
        assert!(!RepairMode::Hints.anti_entropy_enabled());
        assert!(!RepairMode::AntiEntropy.hints_enabled());
        assert!(RepairMode::AntiEntropy.anti_entropy_enabled());
        assert!(!RepairMode::Off.hints_enabled());
        assert!(!RepairMode::Off.anti_entropy_enabled());
    }

    #[test]
    fn configs_without_a_repair_field_default_to_off() {
        // Pre-repair-plane configs (serialized before PR 6) must keep
        // deserializing, with repair fully disabled.
        let cfg = ClusterConfig::lan_test(4, 3);
        let json = serde_json::to_string(&cfg).unwrap();
        let start = json.find(",\"repair\":{").expect("field present");
        let end = json[start + 1..].find('}').unwrap() + start + 2;
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        assert_ne!(json, stripped, "the field must have been removed");
        let back: ClusterConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.repair, RepairConfig::off());
        assert_eq!(back.repair.mode, RepairMode::Off);
        // A repair block as written while the plane's four tuning values
        // were fields (present, "0 = built-in default") still loads.
        let old: RepairConfig = serde_json::from_str(
            "{\"mode\":\"Full\",\"hint_capacity_per_node\":0,\"hint_replay_interval\":0,\
             \"anti_entropy_interval\":0,\"summary_bytes_per_page\":0}",
        )
        .unwrap();
        assert_eq!(old, RepairConfig::with_mode(RepairMode::Full));
    }

    #[test]
    fn configs_without_resilience_fields_default_to_off() {
        // Pre-PR-9 configs (serialized before the resilience layer) must
        // keep deserializing, with hedging/backoff/dynamic selection fully
        // disabled.
        let cfg = ClusterConfig::lan_test(4, 3);
        let json = serde_json::to_string(&cfg).unwrap();
        let start = json.find(",\"resilience\":{").expect("field present");
        let end = json[start + 1..].find('}').unwrap() + start + 2;
        let stripped = format!("{}{}", &json[..start], &json[end..]);
        let stripped = stripped.replace(",\"read_selection\":\"Closest\"", "");
        assert_ne!(json, stripped, "both fields must have been removed");
        let back: ClusterConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.resilience, ResilienceConfig::off());
        assert!(!back.resilience.hedging_enabled());
        assert!(!back.resilience.backoff);
        assert_eq!(back.read_selection, ReplicaSelection::Closest);
        // A resilience block as written while the five tuning values were
        // fields (present, "0 = built-in default") still loads.
        let old: ResilienceConfig = serde_json::from_str(
            "{\"hedge_delay\":500,\"backoff\":true,\"backoff_base\":0,\"backoff_cap\":0,\
             \"health_alpha\":0,\"breaker_failures\":0,\"breaker_cooldown\":0}",
        )
        .unwrap();
        assert!(old.hedging_enabled());
        assert_eq!(old.hedge_delay, SimDuration::from_micros(500));
        assert!(old.backoff);
    }

    #[test]
    fn replica_selection_names_round_trip() {
        for (name, sel) in [
            ("closest", ReplicaSelection::Closest),
            ("random", ReplicaSelection::Random),
            ("dynamic", ReplicaSelection::Dynamic),
        ] {
            assert_eq!(ReplicaSelection::from_name(name), Some(sel));
            assert_eq!(ReplicaSelection::from_name(sel.label()), Some(sel));
            let json = serde_json::to_string(&sel).unwrap();
            let back: ReplicaSelection = serde_json::from_str(&json).unwrap();
            assert_eq!(back, sel);
        }
        assert_eq!(ReplicaSelection::from_name("nearest"), None);
        assert_eq!(ReplicaSelection::default(), ReplicaSelection::Closest);
    }

    #[test]
    fn configs_without_a_shards_field_default_to_unsharded() {
        // Pre-sharding configs must keep deserializing, and both the absent
        // field (0) and an explicit 1 mean "unsharded".
        let cfg = ClusterConfig::lan_test(4, 3);
        let json = serde_json::to_string(&cfg).unwrap();
        let stripped = json.replace(",\"shards\":1", "");
        assert_ne!(json, stripped, "the field must have been present");
        let back: ClusterConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.shards, 0);
        assert_eq!(back.effective_shards(), 1);
        assert_eq!(cfg.effective_shards(), 1);
        // Oversharded configs clamp to the node count.
        let mut wide = ClusterConfig::lan_test(4, 3);
        wide.shards = 64;
        assert!(wide.validate().is_ok());
        assert_eq!(wide.effective_shards(), 4);
        wide.shards = 2;
        assert_eq!(wide.effective_shards(), 2);
    }

    #[test]
    fn configs_carrying_the_retired_fields_still_load() {
        // Configs serialized while `eager_folds` (barrier elision) and
        // `exact_latency_percentiles` were options, or while each of the
        // three constants below was the field of its lower-cased name (with
        // the constant's value), must keep deserializing: unknown fields are
        // ignored.
        let cfg = ClusterConfig::lan_test(4, 3);
        let json = serde_json::to_string(&cfg).unwrap();
        let mut retired =
            String::from(",\"exact_latency_percentiles\":true,\"shards\":1,\"eager_folds\":false");
        for (name, value) in [
            ("NODE_CONCURRENCY", ClusterConfig::NODE_CONCURRENCY),
            (
                "MESSAGE_OVERHEAD_BYTES",
                ClusterConfig::MESSAGE_OVERHEAD_BYTES,
            ),
            ("SMALL_MESSAGE_BYTES", ClusterConfig::SMALL_MESSAGE_BYTES),
        ] {
            retired += &format!(",\"{}\":{value}", name.to_lowercase());
        }
        let old = json.replace(",\"shards\":1", &retired);
        assert_ne!(json, old, "the retired fields must have been inserted");
        let back: ClusterConfig = serde_json::from_str(&old).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert!(back.validate().is_ok());
    }

    #[test]
    fn configs_without_a_partitioner_field_default_to_hash() {
        // Pre-PR configs serialized before the partitioner existed must
        // keep deserializing (and keep their hash-ring behaviour).
        let cfg = ClusterConfig::lan_test(4, 3);
        let json = serde_json::to_string(&cfg).unwrap();
        let stripped = json.replace("\"partitioner\":\"Hash\",", "");
        assert_ne!(json, stripped, "the field must have been present");
        let back: ClusterConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.partitioner, Partitioner::Hash);
    }
}
