//! The sharded multi-core ingest engine.
//!
//! [`ShardedTiresias`] horizontally partitions one logical detector
//! across N worker shards. A deterministic [`ShardRouter`] hashes each
//! record's *top-level* label (no full path resolve) to a shard; each
//! shard owns a complete [`Tiresias`] instance — its own tree, open-unit
//! counts and heavy hitter tracker — and processes its subtrees
//! independently. Timeunit boundaries close per-shard in parallel, and
//! the anomalies of closed units merge into one deterministically
//! ordered, queryable [`ReportStore`].
//!
//! # Why the output is shard-count invariant
//!
//! Every quantity the detector derives for a node of depth ≥ 1 is a
//! pure function of that node's *own subtree* counts:
//!
//! * Definition-2 membership and modified weights are computed by a
//!   bottom-up sweep that only ever crosses top-level boundaries at the
//!   root;
//! * aggregate weights, split statistics and reference series are
//!   per-node;
//! * ADA's `SPLIT`/`MERGE` choreography moves series between parents
//!   and children inside one subtree — except splits *from the root*,
//!   which would leak the root's series (a sum over whichever top-level
//!   subtrees happen to share the shard) downwards. The engine
//!   therefore runs every shard with `HhhConfig::root_isolation`, under
//!   which a first-level node seeds from its reference series or zeros
//!   instead.
//!
//! The per-shard root nodes are thus pure synthetic aggregation points:
//! they are excluded from the merged heavy hitter set and event stream,
//! and everything that *is* reported is independent of how top-level
//! labels are grouped into shards. Running with 1, 2, 4 or 8 shards
//! produces byte-identical unions of shard trees, heavy hitter paths
//! and anomaly streams (`tests/sharded_invariance.rs` proves this
//! property over randomised workloads).
//!
//! The price of that invariance is that the *whole-population* series —
//! the global root the unsharded [`Tiresias`] tracks when traffic is
//! diffuse — has no owner, so root-level (level-0) anomalies are not
//! reported by the sharded engine, and `auto_seasonality` (which
//! analyses the global total) is rejected at build time.

use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use tiresias_hierarchy::{first_segment_hash, Tree};
use tiresias_sketch::SpaceSaving;

use crate::anomaly::AnomalyEvent;
use crate::builder::TiresiasBuilder;
use crate::detector::Tiresias;
use crate::error::CoreError;
use crate::ring::ShardRing;
use crate::store::ReportStore;

/// Records per chunk handed from the router to a shard worker; the unit
/// of ring-buffer synchronisation. Batching per ~1k records makes the
/// ring's lock cost negligible per record.
const CHUNK_RECORDS: usize = 1024;
/// Chunks a shard ring buffers before the router blocks (backpressure).
const RING_CAPACITY: usize = 8;

/// Deterministic record router: maps a record's top-level label to a
/// shard through an explicit routing table with a hash fallback.
///
/// Unseen labels route by a stable Fx hash of the first non-empty path
/// segment ([`first_segment_hash`]), so the same label maps to the same
/// shard across runs, restarts and checkpoints. Hot labels can be
/// **pinned** to an explicit shard ([`ShardRouter::pin`]) — the
/// adaptive rebalancer's output — and the pinned table persists in
/// checkpoints so a restart resumes with the learned placement. Either
/// way, all records of one top-level subtree land on one shard, which
/// is what lets each shard run a full detector over its subtrees
/// without coordinating with the others.
///
/// # Example
///
/// ```
/// use tiresias_core::ShardRouter;
///
/// let mut router = ShardRouter::new(4);
/// let shard = router.route("TV/No Service");
/// assert!(shard < 4);
/// // Only the top-level label matters.
/// assert_eq!(shard, router.route("TV/Pixelation"));
/// // The root path (no label) deterministically maps to shard 0.
/// assert_eq!(router.route("//"), 0);
/// // Pinning overrides the hash fallback.
/// router.pin("TV", (shard as u32 + 1) % 4);
/// assert_eq!(router.route("TV/Pixelation"), (shard + 1) % 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(from = "RouterRepr", into = "RouterRepr")]
pub struct ShardRouter {
    shards: u32,
    /// Pinned label → shard overrides, sorted by label text. This is
    /// the canonical (persisted) form of the routing table.
    overrides: Vec<(String, u32)>,
    /// First-segment-hash → shard lookup derived from `overrides`,
    /// sorted by hash for the hot path's binary search.
    by_hash: Vec<(u64, u32)>,
}

/// Serialised form of [`ShardRouter`]: the shard count plus the pinned
/// override table (the checkpoint-envelope v4 addition). The hash
/// lookup is rebuilt on deserialisation.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct RouterRepr {
    shards: u32,
    overrides: Vec<(String, u32)>,
}

impl From<ShardRouter> for RouterRepr {
    fn from(r: ShardRouter) -> Self {
        RouterRepr { shards: r.shards, overrides: r.overrides }
    }
}

impl From<RouterRepr> for ShardRouter {
    fn from(r: RouterRepr) -> Self {
        let mut router = ShardRouter::new(r.shards as usize);
        for (label, shard) in r.overrides {
            router.pin(&label, shard);
        }
        router
    }
}

impl ShardRouter {
    /// Creates a router over `shards` shards (minimum 1) with no pinned
    /// labels.
    pub fn new(shards: usize) -> Self {
        ShardRouter {
            shards: u32::try_from(shards.max(1)).expect("shard count fits in u32"),
            overrides: Vec::new(),
            by_hash: Vec::new(),
        }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards as usize
    }

    /// The shard owning `path`'s top-level label.
    #[inline]
    pub fn route(&self, path: &str) -> usize {
        self.route_hash(first_segment_hash(path))
    }

    /// The shard owning the top-level label with first-segment hash `h`
    /// — the half of [`ShardRouter::route`] after path parsing, for
    /// callers that already hold the hash (batch scratch, rebalancer).
    #[inline]
    pub fn route_hash(&self, h: u64) -> usize {
        if !self.by_hash.is_empty() {
            if let Ok(i) = self.by_hash.binary_search_by_key(&h, |&(k, _)| k) {
                return self.by_hash[i].1 as usize;
            }
        }
        // The Fx multiply concentrates its entropy in the high bits,
        // which a plain modulo would ignore — run the 64-bit
        // xor-shift-multiply finaliser (splitmix64's) so similar labels
        // spread over small shard counts too.
        let mut x = h;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        (x % u64::from(self.shards)) as usize
    }

    /// Pins top-level label `label` to `shard` (clamped to the shard
    /// count), overriding the hash fallback. Pinning the empty label
    /// (the root path) is a no-op: root-path records always take the
    /// deterministic fallback.
    ///
    /// Labels whose first-segment hashes collide share one hash-table
    /// entry and therefore always route — and rebalance — together,
    /// which keeps routing and subtree migration consistent even in
    /// that astronomically unlikely case.
    pub fn pin(&mut self, label: &str, shard: u32) {
        let h = first_segment_hash(label);
        if h == 0 {
            return;
        }
        let shard = shard.min(self.shards - 1);
        match self.overrides.binary_search_by(|(l, _)| l.as_str().cmp(label)) {
            Ok(i) => self.overrides[i].1 = shard,
            Err(i) => self.overrides.insert(i, (label.to_string(), shard)),
        }
        match self.by_hash.binary_search_by_key(&h, |&(k, _)| k) {
            Ok(i) => self.by_hash[i].1 = shard,
            Err(i) => self.by_hash.insert(i, (h, shard)),
        }
    }

    /// The pinned override table, sorted by label text.
    pub fn overrides(&self) -> &[(String, u32)] {
        &self.overrides
    }

    /// Number of pinned labels.
    pub fn pinned_count(&self) -> usize {
        self.overrides.len()
    }
}

/// A tiny per-batch routing cache: a direct-mapped (hash → shard) table
/// that skips the override search and the mixing finaliser for labels
/// repeated within one batch — which, under the Zipfian traffic that
/// motivates adaptive routing, is almost all of them.
pub(crate) struct RouteScratch {
    slots: [(u64, u32); Self::SLOTS],
}

impl RouteScratch {
    const SLOTS: usize = 64;

    pub fn new() -> Self {
        // Hash 0 is the root path, which `route_hash` resolves without
        // a table anyway, so it doubles as the empty-slot sentinel.
        RouteScratch { slots: [(0, 0); Self::SLOTS] }
    }

    /// [`ShardRouter::route`] through the cache.
    #[inline]
    pub fn route(&mut self, router: &ShardRouter, path: &str) -> usize {
        let h = first_segment_hash(path);
        if h == 0 {
            return router.route_hash(0);
        }
        let slot = (h as usize) & (Self::SLOTS - 1);
        let (key, shard) = self.slots[slot];
        if key == h {
            return shard as usize;
        }
        let shard = router.route_hash(h);
        self.slots[slot] = (h, shard as u32);
        shard
    }
}

/// Configuration of the skew-adaptive label→shard rebalancer.
///
/// When enabled, the engine measures per-top-label load every epoch
/// (timeunit close), folds the hot labels into a bounded
/// [`SpaceSaving`](tiresias_sketch::SpaceSaving) sketch, and — at the
/// epoch barrier, the only point where no admission is in flight —
/// greedily pins the hottest labels of the most loaded shard onto the
/// least loaded one until the projected worst/mean load ratio drops to
/// `threshold`. Subtree detector state moves with the label, so output
/// stays byte-identical to static routing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RebalanceConfig {
    /// Master switch; `false` keeps routing fully static.
    pub enabled: bool,
    /// Rebalance until worst/mean projected shard load ≤ this (≥ 1.0;
    /// lower is more aggressive).
    pub threshold: f64,
    /// Budget of label moves applied per epoch barrier (moving a label
    /// transplants its whole subtree's tracker state, so the work is
    /// bounded per close).
    pub max_moves_per_epoch: usize,
    /// Ceiling on the pinned override table; beyond it no new labels
    /// are pinned (existing pins may still be repointed).
    pub max_overrides: usize,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: false,
            threshold: 1.15,
            max_moves_per_epoch: 4,
            max_overrides: 512,
        }
    }
}

impl RebalanceConfig {
    /// An enabled config with the default aggressiveness.
    pub fn enabled() -> Self {
        RebalanceConfig { enabled: true, ..RebalanceConfig::default() }
    }

    /// Sets the worst/mean threshold (clamped to ≥ 1.0).
    #[must_use]
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = if threshold.is_finite() { threshold.max(1.0) } else { 1.15 };
        self
    }
}

/// Greedy rebalancing plan: moves the hottest labels off the most
/// loaded shard onto the least loaded one until the projected
/// worst/mean ratio reaches `cfg.threshold`, the per-epoch move budget
/// is spent, or no single move improves the worst shard. Deterministic:
/// ties break toward the lower shard index and the lexicographically
/// smaller label.
///
/// `loads` is the per-epoch load (records attributed to the label's
/// subtree) of every candidate label; labels not listed keep their
/// current route. Returns `(label, target_shard)` moves.
pub(crate) fn plan_rebalance(
    loads: &[(String, f64)],
    router: &ShardRouter,
    cfg: &RebalanceConfig,
) -> Vec<(String, u32)> {
    let n = router.shards();
    if n < 2 || loads.is_empty() {
        return Vec::new();
    }
    // Candidate labels sorted hottest-first (label text breaks ties so
    // the plan is independent of input order).
    let mut labels: Vec<(&str, f64, usize)> = loads
        .iter()
        .filter(|(label, load)| *load > 0.0 && !label.is_empty())
        .map(|(label, load)| (label.as_str(), *load, router.route(label)))
        .collect();
    labels.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(b.0))
    });
    let mut shard_load = vec![0.0f64; n];
    for &(_, load, shard) in &labels {
        shard_load[shard] += load;
    }
    let total: f64 = shard_load.iter().sum();
    if total <= 0.0 {
        return Vec::new();
    }
    let mean = total / n as f64;
    let budget = cfg.max_moves_per_epoch.max(1);
    let headroom = cfg.max_overrides.saturating_sub(router.pinned_count());
    let mut moves: Vec<(String, u32)> = Vec::new();
    while moves.len() < budget.min(headroom) {
        let worst = (0..n)
            .max_by(|&a, &b| {
                shard_load[a].partial_cmp(&shard_load[b]).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("n >= 2");
        if shard_load[worst] <= cfg.threshold * mean {
            break;
        }
        let target = (0..n)
            .min_by(|&a, &b| {
                shard_load[a].partial_cmp(&shard_load[b]).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("n >= 2");
        // Hottest label on the worst shard whose move strictly shrinks
        // the maximum (the target must not become the new worst).
        let pick = labels.iter().position(|&(_, load, shard)| {
            shard == worst && shard_load[target] + load < shard_load[worst]
        });
        let Some(i) = pick else { break };
        let (label, load, _) = labels[i];
        shard_load[worst] -= load;
        shard_load[target] += load;
        labels[i].2 = target;
        moves.push((label.to_string(), target as u32));
    }
    moves
}

/// Per-epoch rebalancing state shared by the offline engine's barrier
/// hook and the live back-end's `close_to`: the recency-weighted
/// hot-label sketch, the applied-move counter and the measured balance
/// gauge. Runtime state, never checkpointed — only the learned
/// placement (the router's override table) persists.
#[derive(Debug, Clone, Default)]
pub(crate) struct Balancer {
    /// Recency-weighted hot-label sketch (keyed by first-segment hash),
    /// aged by one `halve` per epoch; only labels it monitors are
    /// eligible for pinning, which bounds override-table churn to
    /// labels that are persistently hot.
    hot_labels: SpaceSaving,
    /// Label moves applied so far (monotone counter, telemetry).
    pub rebalances: u64,
    /// Worst/mean per-shard load ratio of the last measured epoch
    /// (1.0 = perfectly balanced; 0.0 = not yet measured).
    pub last_balance: f64,
}

impl Balancer {
    /// Folds one closed epoch's per-label subtree loads into the
    /// balance gauge and the hot-label sketch, and returns the moves a
    /// greedy rebalance would apply (empty when `cfg` is disabled).
    pub fn measure(
        &mut self,
        mut loads: Vec<(String, f64)>,
        router: &ShardRouter,
        cfg: &RebalanceConfig,
    ) -> Vec<(String, u32)> {
        let mut shard_load = vec![0.0f64; router.shards()];
        for (label, load) in &loads {
            shard_load[router.route(label)] += load;
        }
        let total: f64 = shard_load.iter().sum();
        if total > 0.0 {
            let worst = shard_load.iter().cloned().fold(0.0f64, f64::max);
            self.last_balance = worst / (total / shard_load.len() as f64);
        }
        if !cfg.enabled {
            return Vec::new();
        }
        if self.hot_labels.capacity() == 0 {
            self.hot_labels = SpaceSaving::new(cfg.max_overrides.max(64));
        }
        // Age, then fold this epoch in: the sketch tracks
        // recency-weighted hot labels across epochs.
        self.hot_labels.halve();
        for (label, load) in &loads {
            let weight = load.round() as u64;
            if weight > 0 {
                self.hot_labels.add(first_segment_hash(label), weight);
            }
        }
        // Only persistently hot labels are move candidates.
        loads.retain(|(label, _)| self.hot_labels.contains(first_segment_hash(label)));
        plan_rebalance(&loads, router, cfg)
    }
}

/// The sharded multi-core ingest engine: N parallel [`Tiresias`] shards
/// behind one deterministic router, with shard-count-invariant output.
///
/// Records enter through the batched [`ShardedTiresias::push_batch`]
/// (or the single-record [`ShardedTiresias::push_str`]); each batch is
/// routed by top-level label, streamed through bounded SPSC ring
/// buffers to one scoped worker thread per shard, and closed timeunits
/// are processed by all shards in parallel. Anomalies from closed units
/// are merged into a single [`ReportStore`] ordered by `(unit, path)` —
/// an order that does not depend on the shard count (see the
/// `sharded` module docs for why the whole output is invariant).
///
/// The engine (all shards, the router and the merged store) serialises
/// with serde exactly like the single-shard detector, so a sharded
/// deployment checkpoints and resumes mid-stream.
///
/// # Example
///
/// ```
/// use tiresias_core::TiresiasBuilder;
///
/// let mut engine = TiresiasBuilder::new()
///     .timeunit_secs(900)       // 15-minute units, as in the paper
///     .window_len(96)
///     .threshold(5.0)
///     .season_length(4)
///     .sensitivity(2.8, 8.0)    // the paper's RT and DT
///     .warmup_units(8)
///     .shards(4)
///     .build_sharded()?;
///
/// let mut batch: Vec<(String, u64)> = Vec::new();
/// for t in 0..12u64 {
///     let burst = if t == 11 { 80 } else { 8 };
///     for i in 0..burst {
///         batch.push(("TV/No Service".to_string(), t * 900 + i));
///     }
/// }
/// engine.push_batch(&batch)?;
/// engine.advance_to(12 * 900)?;
/// assert!(engine.anomalies().iter().any(|a| a.path.to_string() == "TV/No Service"));
/// # Ok::<(), tiresias_core::CoreError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardedTiresias {
    builder: TiresiasBuilder,
    router: ShardRouter,
    shards: Vec<Tiresias>,
    /// The merged report store. It owns the report tree the merged
    /// events' node ids live in, grown in merge order (deterministic,
    /// hence shard-count invariant) and containing only reported paths,
    /// not the full ingested hierarchy.
    store: ReportStore,
    /// Per-shard store sequence number up to which events were merged
    /// (shard stores are truncated behind it, so they stay bounded).
    merged: Vec<u64>,
    /// Events collected from shards but not yet releasable (their unit
    /// is still open somewhere).
    pending: Vec<AnomalyEvent>,
    /// Global watermark: the open (not yet closed) timeunit.
    open_unit: Option<u64>,
    /// `false` processes batches on the calling thread, shard by shard
    /// (used by benchmarks to measure per-shard cost without timeslice
    /// interference; output is identical either way).
    threaded: bool,
    /// Per-shard cumulative ingest busy time in nanoseconds.
    busy_nanos: Vec<u64>,
    /// Cumulative router busy time (validation + routing) in
    /// nanoseconds.
    router_nanos: u64,
    /// Skew-adaptive rebalancer knobs. Runtime policy, not state: a
    /// resumed checkpoint re-applies the serving configuration, so only
    /// the *learned placement* (the router's override table) persists.
    #[serde(skip)]
    rebalance: RebalanceConfig,
    /// Explicit `pin_label` requests awaiting the next epoch barrier.
    #[serde(skip)]
    pending_pins: Vec<(String, u32)>,
    /// The hot-label sketch, move counter and balance gauge.
    #[serde(skip)]
    bal: Balancer,
    /// `units_processed` at the last epoch measurement, so a barrier
    /// that closed no unit does not re-measure.
    #[serde(skip)]
    measured_units: u64,
}

/// The engine's state decomposed into the pieces the live
/// front-end/back-end split redistributes: the shards move onto
/// long-running worker threads, routing moves into the shareable
/// [`crate::IngestHandle`], and the merge state stays with the
/// exclusive [`crate::LiveSharded`] back-end.
pub(crate) struct ShardedParts {
    pub builder: TiresiasBuilder,
    pub router: ShardRouter,
    pub shards: Vec<Tiresias>,
    pub store: ReportStore,
    pub pending: Vec<AnomalyEvent>,
    pub open_unit: Option<u64>,
    pub busy_nanos: Vec<u64>,
    pub router_nanos: u64,
    pub rebalance: RebalanceConfig,
}

impl ShardedTiresias {
    pub(crate) fn from_builder(builder: TiresiasBuilder) -> Result<Self, CoreError> {
        if builder.auto_seasonality.is_some() {
            return Err(CoreError::InvalidConfig(
                "auto_seasonality analyses the whole-population total, which no single shard \
                 observes; resolve the season up front (season_length / model) for sharded \
                 ingestion"
                    .into(),
            ));
        }
        let n = builder.shards.max(1);
        // Root isolation keeps every depth ≥ 1 series a function of its
        // own subtree — the invariance property documented on the
        // module. The builder itself keeps the caller's flags so a
        // checkpoint round-trips the exact configuration.
        let mut shard_builder = builder.clone();
        shard_builder.root_isolation = true;
        let shards = (0..n)
            .map(|_| shard_builder.clone().build())
            .collect::<Result<Vec<Tiresias>, CoreError>>()?;
        let store = ReportStore::with_root(builder.root_label.clone());
        Ok(ShardedTiresias {
            router: ShardRouter::new(n),
            shards,
            store,
            merged: vec![0; n],
            pending: Vec::new(),
            open_unit: None,
            threaded: true,
            busy_nanos: vec![0; n],
            router_nanos: 0,
            builder,
            rebalance: RebalanceConfig::default(),
            pending_pins: Vec::new(),
            bal: Balancer::default(),
            measured_units: 0,
        })
    }

    /// Decomposes the engine for the live front-end/back-end split.
    pub(crate) fn into_parts(self) -> ShardedParts {
        ShardedParts {
            builder: self.builder,
            router: self.router,
            shards: self.shards,
            store: self.store,
            pending: self.pending,
            open_unit: self.open_unit,
            busy_nanos: self.busy_nanos,
            router_nanos: self.router_nanos,
            rebalance: self.rebalance,
        }
    }

    /// Reassembles an engine from live parts (the inverse of
    /// [`ShardedTiresias::into_parts`], used by
    /// [`crate::LiveSharded::finish`] so a drained live engine
    /// checkpoints in the exact same format as the offline one).
    pub(crate) fn from_parts(parts: ShardedParts) -> Self {
        let merged = parts.shards.iter().map(|s| s.store().next_seq()).collect();
        ShardedTiresias {
            builder: parts.builder,
            router: parts.router,
            shards: parts.shards,
            store: parts.store,
            merged,
            pending: parts.pending,
            open_unit: parts.open_unit,
            threaded: true,
            busy_nanos: parts.busy_nanos,
            router_nanos: parts.router_nanos,
            rebalance: parts.rebalance,
            pending_pins: Vec::new(),
            bal: Balancer::default(),
            measured_units: 0,
        }
    }

    /// Converts this engine into the concurrently shareable live form:
    /// a [`crate::LiveSharded`] back-end whose cloneable
    /// [`crate::IngestHandle`]s admit records from any number of
    /// threads without an engine-wide lock. `max_ahead_units` bounds
    /// how far ahead of the open timeunit a record may be (see
    /// [`crate::DEFAULT_MAX_AHEAD_UNITS`]).
    ///
    /// With a write-ahead log attached, every admitted batch and every
    /// close barrier is appended to `wal` under the live engine's epoch
    /// gate before it takes effect, so a crash-interrupted run replays
    /// to exactly the acked state. Pass `None` for a WAL-less engine.
    ///
    /// # Errors
    ///
    /// Propagates shard errors from aligning a mid-stream engine.
    pub fn into_live(
        self,
        max_ahead_units: u64,
        wal: Option<std::sync::Arc<crate::Wal>>,
    ) -> Result<crate::LiveSharded, CoreError> {
        crate::LiveSharded::from_engine(self, max_ahead_units, wal)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.router.shards()
    }

    /// The router mapping top-level labels to shards.
    pub fn router(&self) -> &ShardRouter {
        &self.router
    }

    /// Sets the skew-adaptive rebalancer policy (takes effect at the
    /// next epoch barrier). Policy is runtime configuration and is not
    /// checkpointed — only the learned placement (the router's override
    /// table) persists.
    pub fn set_rebalance(&mut self, config: RebalanceConfig) {
        self.rebalance = config;
    }

    /// The active rebalancer policy.
    pub fn rebalance_config(&self) -> RebalanceConfig {
        self.rebalance
    }

    /// Requests that top-level label `label` be owned by `shard`. The
    /// move — routing-table pin plus subtree state transplant — is
    /// applied at the next epoch barrier (the next
    /// [`ShardedTiresias::push_batch`] / [`ShardedTiresias::advance_to`]
    /// / [`ShardedTiresias::close_current_unit`]), the only points
    /// where all shards are aligned. Output is unaffected: the moved
    /// subtree's detector state moves with it.
    pub fn pin_label(&mut self, label: &str, shard: usize) {
        self.pending_pins.push((label.to_string(), shard as u32));
    }

    /// Label moves applied so far (explicit pins that changed ownership
    /// plus automatic rebalances).
    pub fn rebalances(&self) -> u64 {
        self.bal.rebalances
    }

    /// Worst/mean per-shard load ratio of the last measured epoch
    /// (1.0 = perfectly balanced, 0.0 = not yet measured).
    pub fn shard_balance(&self) -> f64 {
        self.bal.last_balance
    }

    /// Measures the closed epoch's per-label loads, applies pending
    /// explicit pins, and — when adaptive rebalancing is enabled —
    /// greedily moves hot labels off the worst shard. Called at every
    /// epoch barrier, after events merge: all shards are aligned on the
    /// same open unit and processed-unit count there, which is the
    /// transplant contract of [`Tiresias::adopt_subtrees`].
    fn maybe_rebalance(&mut self) {
        let mut moves = std::mem::take(&mut self.pending_pins);
        let units = self.units_processed();
        if units > self.measured_units && self.shards.len() > 1 {
            self.measured_units = units;
            let mut loads: Vec<(String, f64)> = Vec::new();
            for shard in &self.shards {
                loads.extend(shard.top_level_unit_loads());
            }
            moves.extend(self.bal.measure(loads, &self.router, &self.rebalance));
        }
        for (label, shard) in moves {
            self.move_label(&label, shard);
        }
    }

    /// Pins `label` to `shard` and transplants its subtree state (and
    /// that of any hash-colliding sibling label, which necessarily
    /// routes with it) from its current owner. No-op when the label
    /// already lives there or has never been seen.
    fn move_label(&mut self, label: &str, shard: u32) {
        let h = first_segment_hash(label);
        if h == 0 {
            return;
        }
        let to = (shard as usize).min(self.shards.len() - 1);
        let from = self.router.route_hash(h);
        self.router.pin(label, to as u32);
        if from == to {
            return;
        }
        let state = self.shards[from].extract_subtrees(|l| first_segment_hash(l) == h);
        if state.is_empty() {
            return;
        }
        self.shards[to].adopt_subtrees(state);
        self.bal.rebalances += 1;
    }

    /// Read-only access to the per-shard detectors (shard trees, heavy
    /// hitters, timings, …). Node ids are shard-local.
    pub fn shards(&self) -> &[Tiresias] {
        &self.shards
    }

    /// The currently open (not yet closed) timeunit index.
    pub fn current_unit(&self) -> Option<u64> {
        self.open_unit
    }

    /// Timeunit size Δ in seconds.
    pub fn timeunit_secs(&self) -> u64 {
        self.builder.timeunit_secs
    }

    /// Records counted into the currently open timeunit, summed across
    /// shards — a non-blocking accounting hook for schedulers and
    /// metrics (no worker threads are involved).
    pub fn open_unit_records(&self) -> f64 {
        self.shards.iter().map(Tiresias::open_records).sum()
    }

    /// Per-shard record counts of the currently open timeunit — the
    /// per-shard queue-depth view a serving layer reports.
    pub fn shard_open_records(&self) -> Vec<f64> {
        self.shards.iter().map(Tiresias::open_records).collect()
    }

    /// Explicitly closes the currently open timeunit on every shard —
    /// the clock-driven close a wall-clock scheduler performs when a
    /// unit's real-time window (plus any grace period) has elapsed,
    /// rather than waiting for a record of a later unit to arrive.
    ///
    /// Returns the unit that was closed, or `None` if no unit was open
    /// (no data has ever arrived). Newly final anomalies are merged
    /// into [`ShardedTiresias::anomalies`] before returning.
    ///
    /// # Errors
    ///
    /// Propagates shard errors (tracker construction at the warm-up
    /// boundary).
    pub fn close_current_unit(&mut self) -> Result<Option<u64>, CoreError> {
        let Some(open) = self.open_unit else {
            return Ok(None);
        };
        self.advance_to((open + 1) * self.builder.timeunit_secs)?;
        Ok(Some(open))
    }

    /// Timeunits fully processed (including warm-up). Between batches
    /// every shard agrees; mid-stream laggards make this the minimum.
    pub fn units_processed(&self) -> u64 {
        self.shards.iter().map(Tiresias::units_processed).min().unwrap_or(0)
    }

    /// `true` once every shard's warm-up completed and detection is
    /// active.
    pub fn is_warmed_up(&self) -> bool {
        self.shards.iter().all(Tiresias::is_warmed_up)
    }

    /// The merged anomaly stream, ordered by `(unit, path)` — complete
    /// through the last closed unit as of the last
    /// [`ShardedTiresias::push_batch`] / [`ShardedTiresias::advance_to`]
    /// call. Event node ids refer to [`ShardedTiresias::tree`].
    pub fn anomalies(&self) -> &[AnomalyEvent] {
        self.store.events()
    }

    /// The queryable merged report store.
    pub fn store(&self) -> &ReportStore {
        &self.store
    }

    /// Mutable access to the merged store (e.g. for
    /// [`ReportStore::dedup_ancestors`] or
    /// [`ReportStore::set_retention`]).
    pub fn store_mut(&mut self) -> &mut ReportStore {
        &mut self.store
    }

    /// The tree the merged events' node ids refer to. It contains the
    /// reported paths (grown in merge order), not the full ingested
    /// hierarchy — use [`ShardedTiresias::shards`] for the shard trees.
    pub fn tree(&self) -> &Tree {
        self.store.tree()
    }

    /// The union of the shards' current heavy hitter sets as category
    /// paths, sorted; per-shard synthetic roots are excluded. Paths are
    /// the stable cross-shard identity (node ids are shard-local).
    pub fn heavy_hitter_paths(&self) -> Vec<tiresias_hierarchy::CategoryPath> {
        let mut paths: Vec<_> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.heavy_hitters()
                    .into_iter()
                    .filter(|&n| n != s.tree().root())
                    .map(|n| s.tree().path_of(n))
                    .collect::<Vec<_>>()
            })
            .collect();
        paths.sort();
        paths
    }

    /// The union of every shard tree's node paths, sorted; per-shard
    /// synthetic roots are excluded. Together with
    /// [`ShardedTiresias::heavy_hitter_paths`] and the merged store,
    /// this is the engine's grouping-independent output identity: the
    /// invariance tests and the scaling bench compare exactly these
    /// three across shard counts.
    pub fn tree_paths(&self) -> Vec<tiresias_hierarchy::CategoryPath> {
        let mut paths: Vec<_> = self
            .shards
            .iter()
            .flat_map(|s| {
                let tree = s.tree();
                tree.iter()
                    .filter(|&n| n != tree.root())
                    .map(|n| tree.path_of(n))
                    .collect::<Vec<_>>()
            })
            .collect();
        paths.sort();
        paths
    }

    /// Per-shard cumulative busy time spent ingesting records and
    /// closing timeunits (excludes ring-buffer waits). On a machine
    /// with ≥ N free cores the wall-clock cost of a batch approaches
    /// `max(router_busy, max(shard_busy))`.
    pub fn shard_busy(&self) -> Vec<Duration> {
        self.busy_nanos.iter().map(|&n| Duration::from_nanos(n)).collect()
    }

    /// Cumulative router busy time (batch validation + routing +
    /// ring-buffer hand-off).
    pub fn router_busy(&self) -> Duration {
        Duration::from_nanos(self.router_nanos)
    }

    /// Selects threaded (default) or sequential batch processing.
    /// Sequential mode runs the same per-shard work on the calling
    /// thread — byte-identical output, useful for benchmarking the
    /// per-shard critical path without timeslice interference and for
    /// single-core hosts.
    pub fn set_threaded(&mut self, threaded: bool) {
        self.threaded = threaded;
    }

    /// `true` iff batches are processed on worker threads.
    pub fn is_threaded(&self) -> bool {
        self.threaded
    }

    /// Ingests one record — routed to its shard, no worker threads.
    ///
    /// Anomalies of units this record closes become visible in
    /// [`ShardedTiresias::anomalies`] after the next
    /// [`ShardedTiresias::push_batch`] or
    /// [`ShardedTiresias::advance_to`] call (merging waits until every
    /// shard has closed the unit). Prefer `push_batch` for throughput.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfOrder`] if `t_secs` falls before the
    /// engine's open timeunit, and propagates shard errors.
    pub fn push_str(&mut self, path: &str, t_secs: u64) -> Result<(), CoreError> {
        let unit = t_secs / self.builder.timeunit_secs;
        match self.open_unit {
            None => self.align_shards(unit)?,
            Some(open) if unit < open => {
                return Err(CoreError::OutOfOrder {
                    timestamp: t_secs,
                    open_unit_start: open * self.builder.timeunit_secs,
                });
            }
            Some(open) if unit > open => self.open_unit = Some(unit),
            Some(_) => {}
        }
        let shard = self.router.route(path);
        self.shards[shard].push_str(path, t_secs)
    }

    /// Ingests a batch of `(path, timestamp)` records — the sharded hot
    /// path.
    ///
    /// The batch is validated up front (timestamps must not precede the
    /// open timeunit; on error *nothing* is ingested), then routed by
    /// top-level label and streamed chunk-wise through bounded SPSC
    /// rings to one scoped worker thread per shard. Workers ingest
    /// concurrently and close timeunit boundaries in parallel; the
    /// final boundary of the batch is broadcast so every shard — even
    /// one that received no records — advances to the same open unit.
    /// Newly closed units' anomalies are then merged into the ordered
    /// store.
    ///
    /// Routing, interner lookups and ring synchronisation are amortised
    /// per batch; batches of a few thousand records or more make the
    /// per-record overhead negligible.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::OutOfOrder`] (before ingesting anything) if
    /// a record's timestamp precedes the engine's open timeunit or an
    /// earlier record of the same batch, and propagates shard errors.
    pub fn push_batch<S: AsRef<str> + Sync>(
        &mut self,
        records: &[(S, u64)],
    ) -> Result<(), CoreError> {
        if records.is_empty() {
            self.merge_events();
            return Ok(());
        }
        let t0 = Instant::now();
        let timeunit = self.builder.timeunit_secs;
        // Whole-batch validation: the stream must be in order exactly as
        // the unsharded detector requires, independent of routing.
        let watermark = crate::detector::validate_batch_order(self.open_unit, timeunit, records)?;
        let final_unit = watermark.expect("non-empty batch produced a watermark");
        self.router_nanos += t0.elapsed().as_nanos() as u64;
        if self.open_unit.is_none() {
            // First data: open the same unit on every shard, exactly as
            // the unsharded detector opens at its first record.
            self.align_shards(records[0].1 / timeunit)?;
        }
        if self.threaded {
            self.run_batch_threaded(records, final_unit)?;
        } else {
            self.run_batch_sequential(records, final_unit)?;
        }
        self.open_unit = Some(final_unit);
        self.merge_events();
        self.maybe_rebalance();
        Ok(())
    }

    /// Advances the clock to `t_secs` on every shard in parallel,
    /// closing every timeunit that ends at or before it (including
    /// empty ones), then merges the newly closed units' anomalies.
    ///
    /// # Errors
    ///
    /// Propagates shard errors (tracker construction at the warm-up
    /// boundary).
    pub fn advance_to(&mut self, t_secs: u64) -> Result<(), CoreError> {
        let target = t_secs / self.builder.timeunit_secs;
        let Some(open) = self.open_unit else {
            self.align_shards(target)?;
            return Ok(());
        };
        // Never move a shard backwards relative to the global watermark:
        // laggards catch up to `open` even when `target` is older.
        let target = target.max(open);
        let target_secs = target * self.builder.timeunit_secs;
        if self.threaded && self.shards.len() > 1 {
            let busy = &mut self.busy_nanos;
            let shards = &mut self.shards;
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .zip(busy.iter_mut())
                    .map(|(shard, busy_slot)| {
                        scope.spawn(move || {
                            let t0 = Instant::now();
                            let result = shard.advance_to(target_secs);
                            *busy_slot += t0.elapsed().as_nanos() as u64;
                            result
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard close worker never panics"))
                    .collect::<Result<Vec<()>, CoreError>>()
            })?;
        } else {
            for (shard, busy_slot) in self.shards.iter_mut().zip(self.busy_nanos.iter_mut()) {
                let t0 = Instant::now();
                shard.advance_to(target_secs)?;
                *busy_slot += t0.elapsed().as_nanos() as u64;
            }
        }
        self.open_unit = Some(target);
        self.merge_events();
        self.maybe_rebalance();
        Ok(())
    }

    /// Opens timeunit `unit` on every shard (no units close; shards are
    /// all still empty or at an earlier open unit).
    fn align_shards(&mut self, unit: u64) -> Result<(), CoreError> {
        let t = unit * self.builder.timeunit_secs;
        for shard in &mut self.shards {
            shard.advance_to(t)?;
        }
        self.open_unit = Some(unit);
        Ok(())
    }

    /// Threaded batch execution: one scoped worker per shard pulls
    /// index chunks from its SPSC ring while the router partitions the
    /// batch on the calling thread.
    fn run_batch_threaded<S: AsRef<str> + Sync>(
        &mut self,
        records: &[(S, u64)],
        final_unit: u64,
    ) -> Result<(), CoreError> {
        let n = self.shards.len();
        let router = &self.router;
        let advance_secs = final_unit * self.builder.timeunit_secs;
        let rings: Vec<ShardRing<Vec<u32>>> =
            (0..n).map(|_| ShardRing::new(RING_CAPACITY)).collect();
        let busy = &mut self.busy_nanos;
        let shards = &mut self.shards;
        let router_nanos = &mut self.router_nanos;
        std::thread::scope(|scope| {
            let handles: Vec<_> = shards
                .iter_mut()
                .zip(rings.iter())
                .zip(busy.iter_mut())
                .map(|((shard, ring), busy_slot)| {
                    scope.spawn(move || -> Result<(), CoreError> {
                        // Any exit — drain, error, or a panic unwinding
                        // out of push_str — abandons the ring, so the
                        // router can never stay blocked on a full ring
                        // whose consumer is gone.
                        let _unblock_router = crate::ring::AbandonOnDrop(ring);
                        let mut busy_local = Duration::ZERO;
                        let work = loop {
                            let Some(chunk) = ring.pop() else { break Ok(()) };
                            let t0 = Instant::now();
                            let mut result = Ok(());
                            for i in chunk {
                                let (path, t) = &records[i as usize];
                                if let Err(e) = shard.push_str(path.as_ref(), *t) {
                                    result = Err(e);
                                    break;
                                }
                            }
                            busy_local += t0.elapsed();
                            if result.is_err() {
                                // Unblock the router before bailing out.
                                ring.abandon();
                                break result;
                            }
                        };
                        // Broadcast boundary: every shard ends the batch
                        // at the same open unit, closing its share of
                        // the passed units in parallel.
                        let work = work.and_then(|()| {
                            let t0 = Instant::now();
                            let r = shard.advance_to(advance_secs);
                            busy_local += t0.elapsed();
                            r
                        });
                        *busy_slot += busy_local.as_nanos() as u64;
                        work
                    })
                })
                .collect();

            // Route on the calling thread, overlapping the workers.
            let t0 = Instant::now();
            let mut scratch = RouteScratch::new();
            let mut chunks: Vec<Vec<u32>> = vec![Vec::with_capacity(CHUNK_RECORDS); n];
            for (i, (path, _)) in records.iter().enumerate() {
                let shard = scratch.route(router, path.as_ref());
                let chunk = &mut chunks[shard];
                chunk.push(i as u32);
                if chunk.len() >= CHUNK_RECORDS {
                    let full = std::mem::replace(chunk, Vec::with_capacity(CHUNK_RECORDS));
                    // `false` = the worker abandoned after an error; keep
                    // routing so the remaining shards finish normally.
                    let _ = rings[shard].push(full);
                }
            }
            for (ring, chunk) in rings.iter().zip(chunks) {
                if !chunk.is_empty() {
                    let _ = ring.push(chunk);
                }
                ring.finish();
            }
            *router_nanos += t0.elapsed().as_nanos() as u64;

            handles
                .into_iter()
                .map(|h| h.join().expect("shard ingest worker never panics"))
                .collect::<Result<Vec<()>, CoreError>>()
        })?;
        Ok(())
    }

    /// Sequential batch execution: identical routing and per-shard
    /// record order, processed shard-by-shard on the calling thread.
    fn run_batch_sequential<S: AsRef<str> + Sync>(
        &mut self,
        records: &[(S, u64)],
        final_unit: u64,
    ) -> Result<(), CoreError> {
        let n = self.shards.len();
        let advance_secs = final_unit * self.builder.timeunit_secs;
        let t0 = Instant::now();
        let router = &self.router;
        let mut scratch = RouteScratch::new();
        let mut routed: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, (path, _)) in records.iter().enumerate() {
            routed[scratch.route(router, path.as_ref())].push(i as u32);
        }
        self.router_nanos += t0.elapsed().as_nanos() as u64;
        for ((shard, indices), busy_slot) in
            self.shards.iter_mut().zip(&routed).zip(self.busy_nanos.iter_mut())
        {
            let t0 = Instant::now();
            let mut work = Ok(());
            for &i in indices {
                let (path, t) = &records[i as usize];
                if let Err(e) = shard.push_str(path.as_ref(), *t) {
                    work = Err(e);
                    break;
                }
            }
            let work = work.and_then(|()| shard.advance_to(advance_secs));
            *busy_slot += t0.elapsed().as_nanos() as u64;
            work?;
        }
        Ok(())
    }

    /// Collects newly stored events from every shard and releases — in
    /// `(unit, path)` order, re-homed onto the report tree — all events
    /// of units that every shard has closed. Per-shard synthetic root
    /// events (level 0) are dropped: the shard root aggregates only the
    /// top-level labels that happen to share the shard, so its series
    /// is not shard-count invariant (see the module docs).
    fn merge_events(&mut self) {
        for (shard, cursor) in self.shards.iter_mut().zip(self.merged.iter_mut()) {
            let (_skipped, tail) = shard.store().events_from(*cursor);
            for event in tail {
                if event.level >= 1 {
                    self.pending.push(event.clone());
                }
            }
            let next = shard.store().next_seq();
            *cursor = next;
            // The shard-internal store's only consumer is this merge:
            // truncating behind the cursor keeps every shard store
            // bounded by construction, whatever the retention budget.
            shard.store_mut().discard_through(next);
        }
        // A unit still open on any shard may yet produce events there;
        // only strictly older units are final.
        let release_before =
            self.shards.iter().map(|s| s.current_unit().unwrap_or(0)).min().unwrap_or(0);
        // No `(unit, path)` duplicates exist across shards (a unit
        // reports a path at most once, and a path lives on one shard),
        // so the order is total and an unstable sort is safe; comparing
        // fields directly skips the tuple construction of the obvious
        // `(a.unit, &a.path).cmp(..)` in this O(n log n) inner loop.
        self.pending.sort_unstable_by(|a, b| a.unit.cmp(&b.unit).then_with(|| a.path.cmp(&b.path)));
        let releasable = self
            .pending
            .iter()
            .position(|e| e.unit >= release_before)
            .unwrap_or(self.pending.len());
        for event in self.pending.drain(..releasable) {
            // The store re-homes each event's node onto its report tree.
            self.store.insert(event);
        }
        if release_before > 0 {
            // Everything below the slowest shard's open unit is final:
            // record the close so the retention budget can evict.
            self.store.note_closed(release_before - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{builder, burst_batch};

    #[test]
    fn router_is_deterministic_and_top_level_only() {
        let r = ShardRouter::new(8);
        assert_eq!(r.route("a/b/c"), r.route("a/zzz"));
        assert_eq!(r.route("a/b/c"), r.route("/a//b"));
        let spread: std::collections::HashSet<usize> =
            (0..64).map(|i| r.route(&format!("label-{i}/x"))).collect();
        assert!(spread.len() > 4, "64 labels spread over several of 8 shards");
        assert_eq!(ShardRouter::new(0).shards(), 1, "clamped to one shard");
    }

    #[test]
    fn detects_like_the_single_detector() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead", "Mail/Bounce"];
        let batch = burst_batch(&paths, 10, 9);
        let mut engine = builder().shards(4).build_sharded().unwrap();
        engine.push_batch(&batch).unwrap();
        engine.advance_to(10 * 900).unwrap();
        assert!(engine.is_warmed_up());
        assert_eq!(engine.units_processed(), 10);
        let events = engine.anomalies();
        assert_eq!(events.len(), 1, "exactly the injected burst: {events:?}");
        assert_eq!(events[0].path.to_string(), "TV/NoService");
        assert_eq!(events[0].unit, 9);
        // The event's node id lives in the report tree.
        assert_eq!(engine.tree().path_of(events[0].node), events[0].path);
    }

    #[test]
    fn threaded_and_sequential_agree() {
        let paths = ["a/x", "b/y", "c/z", "d/w", "e/v"];
        let batch = burst_batch(&paths, 8, 7);
        let mut threaded = builder().shards(4).build_sharded().unwrap();
        let mut sequential = builder().shards(4).build_sharded().unwrap();
        sequential.set_threaded(false);
        assert!(threaded.is_threaded() && !sequential.is_threaded());
        for chunk in batch.chunks(97) {
            threaded.push_batch(chunk).unwrap();
            sequential.push_batch(chunk).unwrap();
        }
        threaded.advance_to(9 * 900).unwrap();
        sequential.advance_to(9 * 900).unwrap();
        assert_eq!(threaded.anomalies(), sequential.anomalies());
        assert_eq!(threaded.heavy_hitter_paths(), sequential.heavy_hitter_paths());
        assert_eq!(threaded.units_processed(), sequential.units_processed());
    }

    #[test]
    fn batches_are_rejected_atomically_when_out_of_order() {
        let mut engine = builder().shards(2).build_sharded().unwrap();
        engine.push_batch(&[("a/x", 5000u64)]).unwrap();
        let units_before = engine.units_processed();
        // Second record regresses below the open unit: nothing ingests.
        let err = engine.push_batch(&[("a/x", 5100u64), ("b/y", 100u64)]).unwrap_err();
        assert!(matches!(err, CoreError::OutOfOrder { .. }));
        assert_eq!(engine.units_processed(), units_before);
        // The engine remains usable.
        engine.push_batch(&[("b/y", 5200u64)]).unwrap();
    }

    #[test]
    fn push_str_merges_on_next_advance() {
        let mut engine = builder().shards(3).build_sharded().unwrap();
        for u in 0..6u64 {
            for i in 0..30 {
                engine.push_str("hot/leaf", u * 900 + i).unwrap();
            }
        }
        for i in 0..300 {
            engine.push_str("hot/leaf", 6 * 900 + i).unwrap();
        }
        engine.advance_to(7 * 900).unwrap();
        assert_eq!(engine.anomalies().len(), 1);
        assert_eq!(engine.anomalies()[0].unit, 6);
        let hh = engine.heavy_hitter_paths();
        assert!(hh.iter().any(|p| p.to_string() == "hot/leaf"), "{hh:?}");
    }

    #[test]
    fn out_of_order_push_str_is_rejected() {
        let mut engine = builder().shards(2).build_sharded().unwrap();
        engine.push_str("a", 5000).unwrap();
        engine.advance_to(9000).unwrap();
        let err = engine.push_str("a", 100).unwrap_err();
        assert!(matches!(err, CoreError::OutOfOrder { .. }));
    }

    #[test]
    fn empty_batches_and_gaps_are_harmless() {
        let mut engine = builder().shards(2).build_sharded().unwrap();
        engine.push_batch::<String>(&[]).unwrap();
        engine.push_batch(&[("a/x", 0u64)]).unwrap();
        // Jump 5 units ahead: the gap closes as zero units everywhere.
        engine.push_batch(&[("a/x", 6 * 900u64)]).unwrap();
        assert_eq!(engine.units_processed(), 6);
        // advance_to with an older timestamp never regresses.
        engine.advance_to(0).unwrap();
        assert_eq!(engine.current_unit(), Some(6));
    }

    #[test]
    fn auto_seasonality_is_rejected() {
        let err = builder().auto_seasonality(2).shards(2).build_sharded().unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        assert!(err.to_string().contains("auto_seasonality"));
    }

    #[test]
    fn clock_driven_close_and_accounting() {
        let mut engine = builder().shards(2).build_sharded().unwrap();
        assert_eq!(engine.close_current_unit().unwrap(), None, "nothing open yet");
        engine.push_batch(&[("a/x", 10u64), ("b/y", 20u64)]).unwrap();
        assert_eq!(engine.timeunit_secs(), 900);
        assert_eq!(engine.open_unit_records(), 2.0);
        assert_eq!(engine.shard_open_records().iter().sum::<f64>(), 2.0);
        assert_eq!(engine.close_current_unit().unwrap(), Some(0));
        assert_eq!(engine.current_unit(), Some(1));
        assert_eq!(engine.open_unit_records(), 0.0, "open counts reset at close");
        assert_eq!(engine.units_processed(), 1);
    }

    #[test]
    fn busy_accounting_accumulates() {
        let mut engine = builder().shards(2).build_sharded().unwrap();
        engine.push_batch(&burst_batch(&["a/x", "b/y"], 4, 99)).unwrap();
        assert!(engine.router_busy() > Duration::ZERO);
        assert_eq!(engine.shard_busy().len(), 2);
        assert!(engine.shard_busy().iter().any(|&d| d > Duration::ZERO));
    }

    #[test]
    fn checkpoint_round_trips_mid_stream() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead"];
        let batch = burst_batch(&paths, 10, 8);
        let split_at = batch.iter().position(|&(_, t)| t >= 6 * 900).unwrap();

        let mut reference = builder().shards(4).build_sharded().unwrap();
        reference.push_batch(&batch).unwrap();
        reference.advance_to(10 * 900).unwrap();

        let mut first_half = builder().shards(4).build_sharded().unwrap();
        first_half.push_batch(&batch[..split_at]).unwrap();
        let json = serde_json::to_string(&first_half).expect("serialises");
        drop(first_half);
        let mut resumed: ShardedTiresias = serde_json::from_str(&json).expect("deserialises");
        resumed.push_batch(&batch[split_at..]).unwrap();
        resumed.advance_to(10 * 900).unwrap();

        assert_eq!(reference.anomalies(), resumed.anomalies());
        assert_eq!(reference.heavy_hitter_paths(), resumed.heavy_hitter_paths());
        assert_eq!(reference.units_processed(), resumed.units_processed());
        assert!(!reference.anomalies().is_empty(), "the burst is detected");
    }

    #[test]
    fn router_overrides_round_trip_through_serde() {
        let mut r = ShardRouter::new(4);
        let native = r.route("TV/x");
        r.pin("TV", ((native + 1) % 4) as u32);
        r.pin("Net", 3);
        r.pin("", 2); // root label: ignored
        assert_eq!(r.pinned_count(), 2);
        assert_eq!(r.route("TV/anything"), (native + 1) % 4);
        let json = serde_json::to_string(&r).unwrap();
        assert!(json.contains("overrides"), "table is the persisted form: {json}");
        let back: ShardRouter = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r, "overrides and rebuilt hash index round-trip");
        assert_eq!(back.route("TV/anything"), (native + 1) % 4);
        // Re-pinning repoints rather than duplicating.
        r.pin("TV", 0);
        assert_eq!(r.pinned_count(), 2);
        assert_eq!(r.route("TV/x"), 0);
    }

    #[test]
    fn plan_rebalance_moves_hot_labels_until_threshold() {
        let router = ShardRouter::new(4);
        // Everything on one shard: three hot labels plus a tail.
        let hot_shard = router.route("hot0/x");
        let mut loads: Vec<(String, f64)> = Vec::new();
        let mut name = 0usize;
        let mut labels_on_hot = Vec::new();
        while labels_on_hot.len() < 6 {
            let label = format!("hot{name}");
            name += 1;
            if router.route(&format!("{label}/x")) == hot_shard {
                labels_on_hot.push(label);
            }
        }
        for (i, l) in labels_on_hot.iter().enumerate() {
            loads.push((l.clone(), 100.0 - i as f64));
        }
        let cfg = RebalanceConfig::enabled().with_threshold(1.2);
        let moves = plan_rebalance(&loads, &router, &cfg);
        assert!(!moves.is_empty());
        assert!(moves.len() <= cfg.max_moves_per_epoch);
        // Deterministic: same inputs, same plan — and input order is
        // irrelevant.
        let mut shuffled = loads.clone();
        shuffled.reverse();
        assert_eq!(moves, plan_rebalance(&shuffled, &router, &cfg));
        // Every move strictly improves: re-planning after applying the
        // moves to a router leaves the worst shard at or under its
        // pre-move load.
        let mut pinned = router.clone();
        for (label, shard) in &moves {
            pinned.pin(label, *shard);
        }
        let load_of = |r: &ShardRouter| {
            let mut per = [0.0f64; 4];
            for (l, w) in &loads {
                per[r.route(l)] += w;
            }
            per.iter().cloned().fold(0.0f64, f64::max)
        };
        assert!(load_of(&pinned) < load_of(&router));
        // A balanced load plans nothing.
        let balanced: Vec<(String, f64)> = (0..4).map(|s| (format!("s{s}"), 10.0)).collect();
        let spread_router = ShardRouter::new(1);
        assert!(plan_rebalance(&balanced, &spread_router, &cfg).is_empty(), "one shard");
    }

    #[test]
    fn adaptive_rebalancing_is_byte_identical_to_static_routing() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead", "Mail/Bounce", "Web/500"];
        // Heavy skew: the first label dominates.
        let mut batch: Vec<(String, u64)> = Vec::new();
        for u in 0..12u64 {
            for (k, p) in paths.iter().enumerate() {
                let count = if k == 0 {
                    60
                } else if u == 10 && k == 1 {
                    90
                } else {
                    6
                };
                for i in 0..count {
                    batch.push((p.to_string(), u * 900 + i));
                }
            }
        }
        let mut fixed = builder().shards(4).build_sharded().unwrap();
        let mut adaptive = builder().shards(4).build_sharded().unwrap();
        adaptive.set_rebalance(RebalanceConfig::enabled().with_threshold(1.05));
        assert!(adaptive.rebalance_config().enabled);
        for chunk in batch.chunks(217) {
            fixed.push_batch(chunk).unwrap();
            adaptive.push_batch(chunk).unwrap();
        }
        fixed.advance_to(12 * 900).unwrap();
        adaptive.advance_to(12 * 900).unwrap();
        assert!(adaptive.rebalances() > 0, "the skew forced moves");
        assert!(adaptive.shard_balance() >= 1.0);
        assert!(adaptive.router().pinned_count() > 0);
        assert_eq!(fixed.anomalies(), adaptive.anomalies());
        assert_eq!(fixed.heavy_hitter_paths(), adaptive.heavy_hitter_paths());
        assert_eq!(fixed.tree_paths(), adaptive.tree_paths());
        assert!(!fixed.anomalies().is_empty(), "the burst is detected");
    }

    #[test]
    fn explicit_pins_apply_at_the_next_barrier_without_changing_output() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead"];
        let batch = burst_batch(&paths, 10, 8);
        let split = batch.iter().position(|&(_, t)| t >= 5 * 900).unwrap();
        let mut fixed = builder().shards(4).build_sharded().unwrap();
        fixed.push_batch(&batch).unwrap();
        fixed.advance_to(10 * 900).unwrap();

        let mut pinned = builder().shards(4).build_sharded().unwrap();
        pinned.push_batch(&batch[..split]).unwrap();
        // Mid-stream, move every label onto shard 0; the transplants
        // happen at the next batch's barrier.
        for label in ["TV", "Net", "Phone"] {
            pinned.pin_label(label, 0);
        }
        pinned.push_batch(&batch[split..]).unwrap();
        pinned.advance_to(10 * 900).unwrap();
        for label in ["TV", "Net", "Phone"] {
            assert_eq!(pinned.router().route(&format!("{label}/x")), 0);
        }
        assert!(pinned.rebalances() > 0, "at least one pin changed ownership");
        assert_eq!(fixed.anomalies(), pinned.anomalies());
        assert_eq!(fixed.heavy_hitter_paths(), pinned.heavy_hitter_paths());
        assert_eq!(fixed.tree_paths(), pinned.tree_paths());
        assert!(!fixed.anomalies().is_empty(), "the burst is detected");
    }

    #[test]
    fn pinned_placement_survives_a_checkpoint() {
        let paths = ["TV/NoService", "Net/Slow", "Phone/Dead"];
        let batch = burst_batch(&paths, 6, 99);
        let mut engine = builder().shards(4).build_sharded().unwrap();
        engine.set_rebalance(RebalanceConfig::enabled().with_threshold(1.0));
        engine.push_batch(&batch).unwrap();
        engine.advance_to(6 * 900).unwrap();
        let pins = engine.router().overrides().to_vec();
        let json = serde_json::to_string(&engine).unwrap();
        let resumed: ShardedTiresias = serde_json::from_str(&json).unwrap();
        assert_eq!(resumed.router().overrides(), pins.as_slice());
        // Policy is runtime config and intentionally not persisted.
        assert!(!resumed.rebalance_config().enabled);
    }
}
