//! The seeded traffic driver: the compress-once / decompress-many reuse
//! pattern as concurrent clients re-reading one store through the cache
//! server, at whichever [`Layer`] the run targets — the in-process
//! [`ServerHandle`] (`pastri bench-server`), the PTRF wire through
//! seeded [`FaultyProxy`]s (`pastri soak --transport`), or a clean wire
//! into a seeded server-side overload injector (`--overload`). Every
//! served block is checked against a direct [`StoreReader`] read, and
//! the run ends with SLO gates over the telemetry it recorded.
//!
//! Determinism contract: the request plan (which client reads which
//! blocks in which batch) is a pure function of the seed, so every
//! field of [`TrafficTallies`] is bit-identical for a fixed seed and
//! store at any thread count. When nothing is lost the tallies are also
//! the same at every layer: the wire serves the bits the in-process
//! handle serves. What a run had to *do* to get there — the cache
//! hit/miss split, retries, hedges, which connections a proxy hit — is
//! timing-dependent and reported beside the tallies, never in them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use durable::retry::{splitmix64, RetryPolicy};
use eri_server::transport::ServeOptions;
use eri_server::{
    AdmissionConfig, BreakerConfig, CacheStats, ClientConfig, ClientStats, Endpoint, InjectedLoad,
    OverloadInject, RemoteClient, ServerConfig, ServerHandle, TransportServer,
};
use eri_store::{StoreReader, StoreWriter};
use faults::overload::{OverloadConfig, OverloadInjector};
use faults::{FaultyProxy, ProxyFaultConfig, ProxyTallies, WireFault};
use pastri::BlockGeometry;

use crate::report::{gates_json, json_f64, json_opt, GateResult};
use crate::{expected_block, store_io, SoakError};

/// A seeded fixture store: `blocks` smooth, ERI-magnitude blocks (the
/// same family the store storm verifies against) of one geometry at one
/// error bound.
#[derive(Debug, Clone, Copy)]
pub struct Fixture {
    pub blocks: usize,
    pub geometry: BlockGeometry,
    pub error_bound: f64,
}

impl Fixture {
    /// The wire storms' default store: 16 blocks of 4×8 at 1e-9.
    #[must_use]
    pub fn storm() -> Self {
        Fixture {
            blocks: 16,
            geometry: BlockGeometry::new(4, 8),
            error_bound: 1e-9,
        }
    }

    /// Writes the fixture for `seed` to `path`, creating parent
    /// directories. The seed picks the block family, so different seeds
    /// serve different values.
    pub fn write(&self, path: &Path, seed: u64) -> Result<(), SoakError> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let family = (seed % 1024) as usize;
        let mut w = StoreWriter::create(path, self.geometry, self.error_bound).map_err(store_io)?;
        for b in 0..self.blocks {
            w.append_block(&expected_block(self.geometry, family, b))
                .map_err(store_io)?;
        }
        w.finish().map_err(store_io)?;
        Ok(())
    }
}

/// Where the clients' reads enter the serving stack.
#[derive(Debug, Clone)]
pub enum Layer {
    /// Straight into an in-process [`ServerHandle`].
    InProcess,
    /// Over the PTRF wire, each replica behind a seeded [`FaultyProxy`]
    /// (`faulty_every = 0` passes every connection through clean).
    Wire(ProxyFaultConfig),
    /// Over a clean wire into a seeded server-side overload injector,
    /// with client circuit breakers and a graceful drain at the end.
    Overload(OverloadStormConfig),
}

/// End-of-run gates. `None` disables a gate.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrafficSloGates {
    /// p99 of the `rpc.rtt_us` histogram (successful-attempt round-trip
    /// time) must be at or below this.
    pub rpc_p99_us: Option<u64>,
    /// Total `rpc.deadline_exceeded` events must not exceed this.
    pub max_deadline_exceeded: Option<u64>,
    /// Total `rpc.frame_errors` (corrupt frames detected) must not
    /// exceed this.
    pub max_frame_errors: Option<u64>,
    /// Overload layer: sheds per planned request must not exceed this
    /// rate (e.g. 0.5 = at most one shed per two planned requests).
    pub max_shed_rate: Option<f64>,
    /// Overload layer: p99 of the `server.queue_wait_us` histogram must
    /// be at or below this.
    pub queue_wait_p99_us: Option<u64>,
    /// Overload layer: total breaker `Opened` transitions across all
    /// clients must not exceed this.
    pub max_breaker_opened: Option<u64>,
}

/// Full configuration of one traffic run.
#[derive(Debug, Clone)]
pub struct TrafficConfig {
    /// Master seed: the request plan, the proxy fault schedules, the
    /// overload injector and the clients' backoff jitter derive from it.
    pub seed: u64,
    /// Concurrent clients, one thread each.
    pub clients: usize,
    /// Batched read requests each client issues, in order.
    pub requests_per_client: usize,
    /// Batch sizes are drawn uniformly from `1..=max_batch`.
    pub max_batch: usize,
    /// Popularity skew: block rank = `⌊u^skew · n⌋` for uniform `u`.
    /// 1.0 is uniform traffic; higher is hotter. Must be finite and > 0.
    pub skew: f64,
    /// Where the reads enter the serving stack.
    pub layer: Layer,
    /// Wire layers: replica servers, each its own mount of the store.
    pub replicas: usize,
    /// Wire layers: per-attempt socket budget for the clients.
    pub attempt_timeout: Duration,
    /// Wire layers: whole-call deadline for the clients.
    pub deadline: Duration,
    /// End-of-run gates.
    pub slo: TrafficSloGates,
}

/// Settings for the overload layer (see [`Layer::Overload`]).
#[derive(Debug, Clone)]
pub struct OverloadStormConfig {
    /// Seeded forced-shed / slow-handler plan installed on the server.
    pub inject: OverloadConfig,
    /// Client circuit-breaker tuning. The defaults here are
    /// *count-driven* (infinite window, zero cooldown) so breaker
    /// transitions are a pure function of each client's outcome
    /// sequence — which the injector makes a pure function of the seed.
    pub breaker: BreakerConfig,
    /// Server admission tuning. Defaults are generous enough that the
    /// only sheds in the storm are the injected ones (organic shedding
    /// is exercised by directed admission tests instead — mixing the
    /// two would make the tallies timing-dependent).
    pub admission: AdmissionConfig,
    /// Budget for the end-of-run graceful drain.
    pub drain_deadline: Duration,
}

impl Default for OverloadStormConfig {
    fn default() -> Self {
        OverloadStormConfig {
            inject: OverloadConfig::default(),
            breaker: BreakerConfig {
                failure_threshold: 3,
                window_us: u64::MAX,
                cooldown_us: 0,
            },
            admission: AdmissionConfig::default(),
            drain_deadline: Duration::from_secs(10),
        }
    }
}

impl TrafficConfig {
    /// `pastri bench-server`'s default: four in-process clients of 256
    /// requests with Zipf-ish skew 3.0, so a handful of hot quartets
    /// absorb most reads — the SCF reuse pattern the cache exists for.
    #[must_use]
    pub fn in_process(seed: u64) -> Self {
        Self {
            seed,
            clients: 4,
            requests_per_client: 256,
            max_batch: 8,
            skew: 3.0,
            layer: Layer::InProcess,
            replicas: 1,
            attempt_timeout: Duration::from_millis(250),
            deadline: Duration::from_secs(20),
            slo: TrafficSloGates::default(),
        }
    }

    /// A small, fast wire storm: uniform traffic from four clients over
    /// two replicas, every fault class on every third connection, no
    /// gates set.
    #[must_use]
    pub fn storm(seed: u64) -> Self {
        Self {
            requests_per_client: 24,
            max_batch: 4,
            skew: 1.0,
            layer: Layer::Wire(ProxyFaultConfig {
                faulty_every: 3,
                classes: WireFault::ALL.to_vec(),
                max_faults: 64,
                stall: Duration::from_millis(400),
                offset_base: 60,
                offset_window: 512,
            }),
            replicas: 2,
            ..Self::in_process(seed)
        }
    }

    /// A small, fast overload storm: one replica on a clean wire,
    /// seeded forced sheds + slow handlers on the server, circuit
    /// breakers in the clients, graceful drain at the end. One replica
    /// because hedged failover racing half-open probes is genuinely
    /// timing-dependent — multi-replica breaker behaviour is covered by
    /// directed tests; the storm's job is bit-identical tallies.
    #[must_use]
    pub fn overload_storm(seed: u64) -> Self {
        Self {
            layer: Layer::Overload(OverloadStormConfig::default()),
            replicas: 1,
            ..Self::storm(seed)
        }
    }

    /// Rejects a configuration that cannot run or would collapse the
    /// workload: a NaN, infinite, zero or negative skew drives every
    /// draw to one block.
    pub fn validate(&self) -> Result<(), SoakError> {
        if self.clients == 0 || self.requests_per_client == 0 || self.max_batch == 0 {
            return Err(SoakError::Config(
                "clients, requests_per_client and max_batch must be at least 1",
            ));
        }
        if self.replicas == 0 {
            return Err(SoakError::Config("replicas must be at least 1"));
        }
        if !(self.skew.is_finite() && self.skew > 0.0) {
            return Err(SoakError::Config("skew must be finite and greater than 0"));
        }
        Ok(())
    }

    fn is_wire(&self) -> bool {
        !matches!(self.layer, Layer::InProcess)
    }
}

/// Deterministic accounting: pure functions of the seed and store.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TrafficTallies {
    /// Requests in the plan (clients × requests_per_client).
    pub requests_planned: u64,
    /// Requests every block of which came back clean.
    pub requests_ok: u64,
    /// Individual blocks requested across all batches.
    pub blocks_requested: u64,
    /// Blocks served byte-identical to the direct-read ground truth.
    pub blocks_served: u64,
    /// Decompressed bytes in those blocks.
    pub bytes_served: u64,
    /// Blocks a request failed to bring back — data loss.
    pub lost_blocks: u64,
    /// Blocks served with the wrong bits — silent corruption that beat
    /// the frame CRC and the store parity. Always data loss.
    pub value_mismatches: u64,
    /// splitmix64 fold of every served value's bit pattern, folded per
    /// client in request order, then across clients in index order.
    pub value_sig: u64,
}

impl TrafficTallies {
    /// Folds one client's tallies in; call in client-index order so the
    /// signature stays seed-deterministic.
    fn absorb(&mut self, c: &TrafficTallies) {
        self.requests_planned += c.requests_planned;
        self.requests_ok += c.requests_ok;
        self.blocks_requested += c.blocks_requested;
        self.blocks_served += c.blocks_served;
        self.bytes_served += c.bytes_served;
        self.lost_blocks += c.lost_blocks;
        self.value_mismatches += c.value_mismatches;
        self.value_sig = splitmix64(self.value_sig ^ c.value_sig);
    }

    /// Checks one served batch against ground truth: matching blocks
    /// are served and folded into the signature, the rest charged.
    fn check<'b>(
        &mut self,
        ids: &[usize],
        blocks: impl ExactSizeIterator<Item = &'b [f64]>,
        truth: &BTreeMap<usize, Vec<f64>>,
    ) {
        let short = ids.len().saturating_sub(blocks.len());
        self.lost_blocks += short as u64;
        let mut clean = short == 0;
        for (b, id) in blocks.zip(ids) {
            let want = truth.get(id);
            if want.is_some_and(|w| {
                w.len() == b.len() && w.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
            }) {
                self.blocks_served += 1;
                self.bytes_served += (b.len() * 8) as u64;
                for v in b {
                    self.value_sig = splitmix64(self.value_sig ^ v.to_bits());
                }
            } else {
                self.value_mismatches += 1;
                clean = false;
            }
        }
        self.requests_ok += u64::from(clean);
    }
}

/// Overload-layer accounting: every field is a pure function of the
/// seed (the clients are plain threads and the injector decides from
/// request ids and attempt counts, never from the clock or pool shape).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OverloadTallies {
    /// Structured `Overloaded` refusals observed by the clients.
    pub client_overloaded: u64,
    /// Requests the server shed (injected + organic).
    pub server_shed: u64,
    /// Requests the server admitted.
    pub server_admitted: u64,
    /// Admitted requests the server finished. Equal to
    /// `server_admitted` after a complete drain: nothing dropped.
    pub server_completed: u64,
    /// Requests refused because the server was draining.
    pub refused_draining: u64,
    /// Breaker transitions summed across clients in index order.
    pub breaker_opened: u64,
    pub breaker_half_opened: u64,
    pub breaker_closed: u64,
    /// The graceful drain finished inside its deadline.
    pub drain_complete: bool,
}

/// Aggregated client recovery counters (timing-dependent).
#[derive(Debug, Default, Clone, Copy)]
pub struct RecoveryTallies {
    pub retries: u64,
    pub hedges: u64,
    pub frame_errors: u64,
    pub deadline_exceeded: u64,
}

/// Measured-hit-rate projection through the pfs-sim reuse model
/// (Fig. 11 arithmetic with the cache discounting decompression).
#[derive(Debug, Clone, Copy)]
pub struct ReuseProjection {
    /// Cache hit rate measured by this run (0 when no lookups).
    pub hit_rate: f64,
    /// SCF reuse count the projection assumes (the paper's 20).
    pub reuse_count: u32,
    /// Regenerate-every-time baseline, seconds.
    pub original_s: f64,
    /// Compress-once / decompress-every-reuse, seconds.
    pub uncached_s: f64,
    /// Same, with the measured hit rate discounting decompression.
    pub cached_s: f64,
}

/// Everything a traffic run produces. Fields a layer does not produce
/// read zero (`recovery`, `proxy` in-process) or `None`.
#[derive(Debug, Clone)]
pub struct TrafficReport {
    pub config: TrafficConfig,
    /// Dataset size the run read from, in blocks.
    pub dataset_blocks: usize,
    /// Geometry of the served store.
    pub geometry: BlockGeometry,
    /// Deterministic accounting (see [`TrafficTallies`]).
    pub tallies: TrafficTallies,
    /// Cache counters at end of run, summed over replicas
    /// (interleaving-dependent split).
    pub cache: CacheStats,
    /// What the wire clients had to do to get there.
    pub recovery: RecoveryTallies,
    /// What the proxies injected, summed across replicas.
    pub proxy: ProxyTallies,
    /// Overload-layer accounting; `None` at the other layers.
    pub overload: Option<OverloadTallies>,
    /// Every configured gate, evaluated.
    pub gates: Vec<GateResult>,
    /// Per-block service time percentiles from `server.read_us`.
    pub read_p50_us: Option<u64>,
    pub read_p99_us: Option<u64>,
    /// Store-fetch path p99 from `server.miss_us`.
    pub miss_p99_us: Option<u64>,
    /// p99 of `rpc.rtt_us` (wire layers).
    pub rpc_p99_us: Option<u64>,
    /// p99 of `server.queue_wait_us` (overload layer).
    pub queue_wait_p99_us: Option<u64>,
    /// Wall time of the client phase, seconds.
    pub wall_s: f64,
    /// Decompressed bytes served per second of wall time, in MB/s.
    pub mb_per_s: f64,
    pub reuse: ReuseProjection,
}

impl TrafficReport {
    /// Every planned block served, byte-identical.
    #[must_use]
    pub fn zero_data_loss(&self) -> bool {
        self.tallies.lost_blocks == 0
            && self.tallies.value_mismatches == 0
            && self.tallies.requests_ok == self.tallies.requests_planned
    }

    /// Every configured gate held.
    #[must_use]
    pub fn all_gates_pass(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }

    /// Overload soundness: the drain finished with the books balanced
    /// (no admitted request dropped) and every server-side shed
    /// surfaced at a client as a structured `Overloaded` error — never a
    /// silent timeout. Trivially true at the other layers.
    #[must_use]
    pub fn overload_sound(&self) -> bool {
        self.overload.is_none_or(|o| {
            o.drain_complete
                && o.server_admitted == o.server_completed
                && o.client_overloaded == o.server_shed
        })
    }

    /// The run's overall verdict.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.zero_data_loss() && self.all_gates_pass() && self.overload_sound()
    }

    /// The machine-readable report, one section per line. `"tallies"`
    /// is bit-identical across same-seed runs, and so are `"overload"`
    /// (overload layer) and `"proxy"` (a single sequential wire
    /// client); the other sections carry run-varying numbers.
    #[must_use]
    pub fn to_json(&self) -> String {
        let c = &self.config;
        let t = &self.tallies;
        let s = &self.cache;
        let r = &self.recovery;
        let p = &self.proxy;
        let u = &self.reuse;
        let (layer, bench) = match c.layer {
            Layer::InProcess => ("in_process", "server"),
            Layer::Wire(_) => ("wire", "transport_soak"),
            Layer::Overload(_) => ("wire_overload", "transport_soak"),
        };
        let (faulty_every, max_faults) = match &c.layer {
            Layer::Wire(f) => (f.faulty_every, f.max_faults),
            _ => (0, 0),
        };
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"bench\": \"{bench}\",\n"));
        out.push_str(&format!(
            "  \"config\": {{\"layer\": \"{layer}\", \"seed\": {}, \"clients\": {}, \
             \"requests_per_client\": {}, \"max_batch\": {}, \"skew\": {}, \"replicas\": {}, \
             \"faulty_every\": {faulty_every}, \"max_faults\": {max_faults}, \
             \"dataset_blocks\": {}, \"geometry\": [{}, {}], \"cache_capacity_bytes\": {}}},\n",
            c.seed,
            c.clients,
            c.requests_per_client,
            c.max_batch,
            json_f64(c.skew),
            if c.is_wire() { c.replicas } else { 1 },
            self.dataset_blocks,
            self.geometry.num_subblocks,
            self.geometry.subblock_size,
            s.capacity_bytes,
        ));
        out.push_str(&format!(
            "  \"tallies\": {{\"requests_planned\": {}, \"requests_ok\": {}, \
             \"blocks_requested\": {}, \"blocks_served\": {}, \"bytes_served\": {}, \
             \"lost_blocks\": {}, \"value_mismatches\": {}, \"value_sig\": {}}},\n",
            t.requests_planned,
            t.requests_ok,
            t.blocks_requested,
            t.blocks_served,
            t.bytes_served,
            t.lost_blocks,
            t.value_mismatches,
            t.value_sig,
        ));
        out.push_str(&format!(
            "  \"cache\": {{\"lookups\": {}, \"hits\": {}, \"misses\": {}, \"insertions\": {}, \
             \"evictions\": {}, \"admission_rejects\": {}, \"hit_rate\": {}, \
             \"occupancy_bytes\": {}, \"high_water_bytes\": {}}},\n",
            s.lookups,
            s.hits,
            s.misses,
            s.insertions,
            s.evictions,
            s.admission_rejects,
            json_f64(s.hit_rate().unwrap_or(0.0)),
            s.bytes,
            s.high_water_bytes,
        ));
        out.push_str(&format!(
            "  \"recovery\": {{\"retries\": {}, \"hedges\": {}, \"frame_errors\": {}, \
             \"deadline_exceeded\": {}}},\n",
            r.retries, r.hedges, r.frame_errors, r.deadline_exceeded,
        ));
        out.push_str(&format!(
            "  \"proxy\": {{\"conns\": {}, \"truncates\": {}, \"corrupts\": {}, \"drops\": {}, \
             \"stalls\": {}, \"resets\": {}}},\n",
            p.conns, p.truncates, p.corrupts, p.drops, p.stalls, p.resets,
        ));
        match &self.overload {
            Some(o) => out.push_str(&format!(
                "  \"overload\": {{\"client_overloaded\": {}, \"server_shed\": {}, \
                 \"server_admitted\": {}, \"server_completed\": {}, \"refused_draining\": {}, \
                 \"breaker_opened\": {}, \"breaker_half_opened\": {}, \"breaker_closed\": {}, \
                 \"drain_complete\": {}}},\n",
                o.client_overloaded,
                o.server_shed,
                o.server_admitted,
                o.server_completed,
                o.refused_draining,
                o.breaker_opened,
                o.breaker_half_opened,
                o.breaker_closed,
                o.drain_complete,
            )),
            None => out.push_str("  \"overload\": null,\n"),
        }
        out.push_str(&format!("  \"slo\": {},\n", gates_json(&self.gates)));
        out.push_str(&format!(
            "  \"timing\": {{\"wall_s\": {}, \"read_p50_us\": {}, \"read_p99_us\": {}, \
             \"miss_p99_us\": {}, \"rpc_p99_us\": {}, \"queue_wait_p99_us\": {}, \
             \"mb_per_s\": {}}},\n",
            json_f64(self.wall_s),
            json_opt(self.read_p50_us),
            json_opt(self.read_p99_us),
            json_opt(self.miss_p99_us),
            json_opt(self.rpc_p99_us),
            json_opt(self.queue_wait_p99_us),
            json_f64(self.mb_per_s),
        ));
        out.push_str(&format!(
            "  \"reuse\": {{\"hit_rate\": {}, \"reuse_count\": {}, \"original_s\": {}, \
             \"uncached_s\": {}, \"cached_s\": {}, \"speedup_vs_uncached\": {}}},\n",
            json_f64(u.hit_rate),
            u.reuse_count,
            json_f64(u.original_s),
            json_f64(u.uncached_s),
            json_f64(u.cached_s),
            json_f64(if u.cached_s > 0.0 {
                u.uncached_s / u.cached_s
            } else {
                1.0
            }),
        ));
        out.push_str(&format!("  \"pass\": {}\n}}\n", self.passed()));
        out
    }
}

/// The request plan: per client, its batches of block ids in issue
/// order. A pure function of the config and the store size. Ranks are
/// drawn as `⌊u^skew · n⌋` over a seeded popularity permutation, so
/// different seeds heat different quartets.
fn plan(cfg: &TrafficConfig, n: usize) -> Vec<Vec<Vec<usize>>> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.sort_by_key(|&i| splitmix64(cfg.seed ^ 0x517c_c1b7_2722_0a95 ^ i as u64));
    (0..cfg.clients)
        .map(|client| {
            let mut x = splitmix64(cfg.seed ^ splitmix64(client as u64 + 1));
            let mut next = move || {
                x = splitmix64(x);
                x
            };
            (0..cfg.requests_per_client)
                .map(|_| {
                    let batch = 1 + (next() % cfg.max_batch as u64) as usize;
                    (0..batch)
                        .map(|_| {
                            // 53-bit uniform in [0,1), skewed toward rank 0.
                            let u = (next() >> 11) as f64 / (1u64 << 53) as f64;
                            let rank = (u.powf(cfg.skew) * n as f64) as usize;
                            perm[rank.min(n - 1)]
                        })
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// What one client thread saw.
struct ClientOutcome {
    tallies: TrafficTallies,
    stats: ClientStats,
}

fn run_client(
    cfg: &TrafficConfig,
    client: usize,
    batches: &[Vec<usize>],
    truth: &BTreeMap<usize, Vec<f64>>,
    local: &ServerHandle,
    endpoints: &[Endpoint],
) -> ClientOutcome {
    let mut t = TrafficTallies {
        requests_planned: batches.len() as u64,
        value_sig: splitmix64(cfg.seed ^ (client as u64) << 17),
        ..TrafficTallies::default()
    };
    let mut remote = None;
    if cfg.is_wire() {
        let ccfg = ClientConfig {
            deadline: cfg.deadline,
            attempt_timeout: cfg.attempt_timeout,
            connect_timeout: cfg.attempt_timeout.max(Duration::from_millis(250)),
            retry: RetryPolicy {
                max_retries: 10,
                initial_backoff: Duration::from_micros(200),
                max_backoff: Duration::from_millis(10),
                jitter_seed: Some(splitmix64(cfg.seed ^ (client as u64) << 33)),
            },
            hedge: true,
            // The wire-fault layer runs breaker-less so its tallies stay
            // bit-identical; the overload layer turns it on with
            // count-driven tuning (see OverloadStormConfig).
            breaker: match &cfg.layer {
                Layer::Overload(o) => Some(o.breaker.clone()),
                _ => None,
            },
            ..ClientConfig::default()
        };
        match RemoteClient::connect(endpoints, ccfg) {
            Ok(c) => remote = Some(c),
            Err(_) => {
                // Even the handshake failed past its retry budget:
                // every planned block is lost.
                t.blocks_requested = batches.iter().map(|b| b.len() as u64).sum();
                t.lost_blocks = t.blocks_requested;
                return ClientOutcome {
                    tallies: t,
                    stats: ClientStats::default(),
                };
            }
        }
    }
    for ids in batches {
        t.blocks_requested += ids.len() as u64;
        let served = match &mut remote {
            None => local
                .read_blocks(ids)
                .map(|bs| t.check(ids, bs.iter().map(|b| b.as_slice()), truth))
                .is_ok(),
            Some(c) => {
                let wire_ids: Vec<u64> = ids.iter().map(|&i| i as u64).collect();
                c.read_blocks_strict(&wire_ids)
                    .map(|bs| t.check(ids, bs.iter().map(Vec::as_slice), truth))
                    .is_ok()
            }
        };
        if !served {
            // A failed batch contributes nothing to the signature.
            t.lost_blocks += ids.len() as u64;
        }
    }
    let stats = remote.map(|c| c.stats()).unwrap_or_default();
    ClientOutcome { tallies: t, stats }
}

/// Runs the configured traffic against the store at `store`, mounted
/// with `server` (once per replica on the wire layers). Resets and
/// enables telemetry for the serving phase, restoring the previous
/// enablement on exit, so the gates and percentiles see exactly this
/// run.
pub fn run_traffic(
    store: &Path,
    server: &ServerConfig,
    cfg: &TrafficConfig,
) -> Result<TrafficReport, SoakError> {
    cfg.validate()?;
    let replicas = if cfg.is_wire() { cfg.replicas } else { 1 };
    let mounts = (0..replicas)
        .map(|_| ServerHandle::open(&[store], server).map(Arc::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(SoakError::Server)?;
    let n = mounts[0].num_blocks();
    if n == 0 {
        return Err(SoakError::Config("the store holds no blocks"));
    }
    let plan = plan(cfg, n);

    // Ground truth: what a direct reader serves for every planned block
    // (post-compression bits). A block it cannot read is absent, so
    // anything served for it counts as a mismatch.
    let mut direct = StoreReader::open(store).map_err(store_io)?;
    let wanted: BTreeSet<usize> = plan.iter().flatten().flatten().copied().collect();
    let truth: BTreeMap<usize, Vec<f64>> = wanted
        .into_iter()
        .filter_map(|id| direct.read_block(id).ok().map(|v| (id, v)))
        .collect();
    drop(direct);

    let was_enabled = telemetry::is_enabled();
    telemetry::reset();
    telemetry::set_enabled(true);
    let result = serve(cfg, &mounts, &plan, &truth);
    telemetry::set_enabled(was_enabled);
    result
}

fn serve(
    cfg: &TrafficConfig,
    mounts: &[Arc<ServerHandle>],
    plan: &[Vec<Vec<usize>>],
    truth: &BTreeMap<usize, Vec<f64>>,
) -> Result<TrafficReport, SoakError> {
    // Wire layers: one server per mount. The fault layer interposes a
    // seeded proxy per replica; the overload layer serves a clean wire
    // and installs the seeded injector in-process instead.
    let mut servers = Vec::new();
    let mut proxies = Vec::new();
    let mut endpoints = Vec::new();
    let wire_mounts = if cfg.is_wire() { mounts } else { &[] };
    for (r, handle) in wire_mounts.iter().enumerate() {
        let opts = match &cfg.layer {
            Layer::Overload(o) => {
                let injector = OverloadInjector::new(
                    splitmix64(cfg.seed ^ ((r as u64 + 1) * 0x0FE2_10AD)),
                    o.inject.clone(),
                );
                let inject = move |key: u64, attempt: u32| {
                    let d = injector.decide(key, attempt);
                    InjectedLoad {
                        shed: d.shed,
                        retry_after: d.retry_after,
                        delay: d.delay,
                    }
                };
                ServeOptions {
                    admission: o.admission.clone(),
                    inject: Some(Arc::new(inject) as Arc<dyn OverloadInject>),
                    ..ServeOptions::default()
                }
            }
            _ => ServeOptions::default(),
        };
        let srv = Arc::new(TransportServer::bind_with(
            &Endpoint::parse("tcp:127.0.0.1:0").expect("static endpoint"),
            Arc::clone(handle),
            opts,
        )?);
        let Endpoint::Tcp(addr) = srv.local_endpoint() else {
            unreachable!()
        };
        let stop = srv.stop_handle();
        let jh = Arc::clone(&srv).spawn(None);
        match &cfg.layer {
            Layer::Wire(faults) => {
                let proxy = FaultyProxy::start(
                    &addr,
                    splitmix64(cfg.seed ^ ((r as u64 + 1) * 0x9E37_79B9)),
                    faults.clone(),
                )?;
                endpoints.push(Endpoint::Tcp(proxy.addr()));
                proxies.push(proxy);
            }
            _ => endpoints.push(Endpoint::Tcp(addr)),
        }
        servers.push((stop, jh));
    }

    // Plain scoped threads: client concurrency must not depend on the
    // rayon pool shape, so the tallies stay seed-pure either way.
    let started = Instant::now();
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .iter()
            .enumerate()
            .map(|(c, batches)| {
                let endpoints = &endpoints;
                scope.spawn(move || run_client(cfg, c, batches, truth, &mounts[0], endpoints))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    // Teardown before reading the gates, so every proxy tally is final.
    // The overload layer drains gracefully — the books it returns are
    // the proof that no admitted request was dropped.
    let mut proxy = ProxyTallies::default();
    for p in proxies {
        proxy.add(&p.stop());
    }
    let mut ovl = OverloadTallies {
        drain_complete: true,
        ..OverloadTallies::default()
    };
    for (stop, jh) in servers {
        let stats = match &cfg.layer {
            Layer::Overload(o) => {
                let outcome = stop.drain(o.drain_deadline);
                ovl.drain_complete &= outcome.complete;
                outcome.stats
            }
            _ => {
                stop.stop();
                stop.admission().stats()
            }
        };
        ovl.server_admitted += stats.admitted;
        ovl.server_completed += stats.completed;
        ovl.server_shed += stats.shed;
        ovl.refused_draining += stats.refused_draining;
        let _ = jh.join().expect("server thread");
    }

    let mut tallies = TrafficTallies {
        value_sig: splitmix64(cfg.seed),
        ..TrafficTallies::default()
    };
    let mut recovery = RecoveryTallies::default();
    for o in &outcomes {
        tallies.absorb(&o.tallies);
        recovery.retries += o.stats.retries;
        recovery.hedges += o.stats.hedges;
        recovery.frame_errors += o.stats.frame_errors;
        recovery.deadline_exceeded += o.stats.deadline_exceeded;
        ovl.client_overloaded += o.stats.overloaded;
        ovl.breaker_opened += o.stats.breaker_opened;
        ovl.breaker_half_opened += o.stats.breaker_half_opened;
        ovl.breaker_closed += o.stats.breaker_closed;
    }
    let overload = matches!(cfg.layer, Layer::Overload(_)).then_some(ovl);

    let mut cache = mounts[0].cache_stats();
    for m in &mounts[1..] {
        let s = m.cache_stats();
        cache.lookups += s.lookups;
        cache.hits += s.hits;
        cache.misses += s.misses;
        cache.insertions += s.insertions;
        cache.evictions += s.evictions;
        cache.admission_rejects += s.admission_rejects;
        cache.bytes += s.bytes;
        cache.high_water_bytes += s.high_water_bytes;
        cache.capacity_bytes += s.capacity_bytes;
    }

    let snap = telemetry::snapshot();
    let hist = |name: &str| snap.histograms.iter().find(|h| h.name == name);
    let pct = |name: &str, q: f64| hist(name).and_then(|h| h.percentile_us(q));
    let rpc_p99_us = pct("rpc.rtt_us", 0.99);
    let queue_wait_p99_us = pct("server.queue_wait_us", 0.99);

    // Every gate is an upper bound; nothing measured passes vacuously.
    let mut gates = Vec::new();
    let mut gate = |gate: &'static str, limit: Option<f64>, actual: Option<f64>| {
        if let Some(threshold) = limit {
            let pass = actual.is_none_or(|v| v <= threshold);
            gates.push(GateResult {
                gate,
                threshold,
                actual,
                pass,
            });
        }
    };
    let slo = &cfg.slo;
    let f = |v: Option<u64>| v.map(|v| v as f64);
    let count = |name: &str| Some(snap.counter(name) as f64);
    gate("rpc_p99_us", f(slo.rpc_p99_us), f(rpc_p99_us));
    gate(
        "max_deadline_exceeded",
        f(slo.max_deadline_exceeded),
        count("rpc.deadline_exceeded"),
    );
    gate(
        "max_frame_errors",
        f(slo.max_frame_errors),
        count("rpc.frame_errors"),
    );
    let shed_rate = ovl.server_shed as f64 / tallies.requests_planned.max(1) as f64;
    gate("max_shed_rate", slo.max_shed_rate, Some(shed_rate));
    gate(
        "queue_wait_p99_us",
        f(slo.queue_wait_p99_us),
        f(queue_wait_p99_us),
    );
    gate(
        "max_breaker_opened",
        f(slo.max_breaker_opened),
        Some(ovl.breaker_opened as f64),
    );

    // Reuse projection: the paper's Fig. 11 pipeline with this run's
    // measured hit rate and miss-path decompression throughput.
    let handle = &mounts[0];
    let hit_rate = cache.hit_rate().unwrap_or(0.0);
    let block_bytes = (handle.geometry().block_size() * 8) as f64;
    let miss_bytes = snap.counter("server.store_reads") as f64 * block_bytes;
    let decompress_mbs = match hist("server.miss_us") {
        // MB over seconds: (bytes/1e6) / (µs/1e6) = bytes/µs.
        Some(h) if h.sum > 0 => miss_bytes / h.sum as f64,
        _ => 1110.0, // nothing missed; fall back to the measured-corpus rate
    };
    let profile = pfs_sim::CompressorProfile {
        name: "PaSTRI".into(),
        ratio: handle.raw_bytes() as f64 / handle.compressed_bytes().max(1) as f64,
        compress_mbs: 660.0, // not exercised by a read-only run
        decompress_mbs,
    };
    let model = pfs_sim::ReuseModel {
        bytes: handle.raw_bytes() as f64,
        eri_gen_mbs: pfs_sim::gamess_eri_rate_mbs("(dd|dd)"),
        reuse_count: 20,
    };
    let reuse = ReuseProjection {
        hit_rate,
        reuse_count: 20,
        original_s: model.original().total_s(),
        uncached_s: model.with_compressor(&profile).total_s(),
        cached_s: model.with_cache_server(&profile, hit_rate).total_s(),
    };

    Ok(TrafficReport {
        config: cfg.clone(),
        dataset_blocks: handle.num_blocks(),
        geometry: handle.geometry(),
        tallies,
        cache,
        recovery,
        proxy,
        overload,
        gates,
        read_p50_us: pct("server.read_us", 0.5),
        read_p99_us: pct("server.read_us", 0.99),
        miss_p99_us: pct("server.miss_us", 0.99),
        rpc_p99_us,
        queue_wait_p99_us,
        wall_s,
        mb_per_s: if wall_s > 0.0 {
            tallies.bytes_served as f64 / 1e6 / wall_s
        } else {
            0.0
        },
        reuse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A fresh directory holding the storm fixture for `seed`.
    fn fixture(name: &str, seed: u64) -> (PathBuf, PathBuf) {
        let dir = std::env::temp_dir().join(format!("soak-traffic-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("storm.eristore");
        Fixture::storm().write(&store, seed).unwrap();
        (dir, store)
    }

    fn run(store: &Path, cfg: &TrafficConfig) -> TrafficReport {
        run_traffic(store, &ServerConfig::default(), cfg).unwrap()
    }

    #[test]
    fn storm_is_zero_loss_and_seed_deterministic() {
        let _g = crate::telemetry_lock();
        let (dir, store) = fixture("det", 0x50AF);
        let mut cfg = TrafficConfig::storm(0x50AF);
        cfg.clients = 3;
        cfg.requests_per_client = 10;
        let a = run(&store, &cfg);
        assert!(a.zero_data_loss(), "{:?}", a.tallies);
        assert!(
            a.proxy.total() > 0,
            "the proxy must actually inject: {:?}",
            a.proxy
        );

        let b = run(&store, &cfg);
        assert_eq!(
            a.tallies, b.tallies,
            "tallies are a pure function of the seed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planned_batches_are_pure() {
        let cfg = TrafficConfig::storm(7);
        let n = Fixture::storm().blocks;
        let p = plan(&cfg, n);
        assert_eq!(p, plan(&cfg, n), "same seed, same plan");
        assert_eq!(p.len(), cfg.clients);
        assert_ne!(p[0], p[1], "clients draw independent streams");
        for batches in &p {
            assert_eq!(batches.len(), cfg.requests_per_client);
            for ids in batches {
                assert!((1..=cfg.max_batch).contains(&ids.len()));
                assert!(ids.iter().all(|&id| id < n));
            }
        }
    }

    #[test]
    fn tallies_do_not_depend_on_the_layer() {
        let _g = crate::telemetry_lock();
        let (dir, store) = fixture("layers", 0x1A7E);
        let faulted = TrafficConfig {
            clients: 3,
            requests_per_client: 8,
            ..TrafficConfig::storm(0x1A7E)
        };
        let mut clean = faulted.clone();
        if let Layer::Wire(f) = &mut clean.layer {
            f.faulty_every = 0;
        }
        let in_process = TrafficConfig {
            layer: Layer::InProcess,
            ..faulted.clone()
        };

        let local = run(&store, &in_process);
        assert!(local.zero_data_loss(), "{:?}", local.tallies);
        assert!(local.tallies.blocks_served > 0);
        for cfg in [&clean, &faulted] {
            let wire = run(&store, cfg);
            assert_eq!(
                wire.tallies, local.tallies,
                "remote == in-process at {:?}",
                cfg.layer
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_storm_is_sound_and_seed_deterministic() {
        let _g = crate::telemetry_lock();
        // A seed whose plan never presents a shed key as the half-open
        // probe, so every probe closes (a shed probe correctly re-opens).
        let (dir, store) = fixture("ovl", 0x0F_F10B0);
        let mut cfg = TrafficConfig::overload_storm(0x0F_F10B0);
        cfg.clients = 3;
        cfg.requests_per_client = 12;
        let a = run(&store, &cfg);
        // Zero data loss even under forced sheds: every request rides
        // its retries through to byte-identical service.
        assert!(a.zero_data_loss(), "{:?}", a.tallies);
        let ao = a.overload.expect("overload tallies present");
        assert!(
            ao.server_shed > 0,
            "the injector must actually shed: {ao:?}"
        );
        // Every shed surfaced as a structured client-side refusal and
        // the drain books balance (nothing admitted was dropped).
        assert!(a.overload_sound(), "{ao:?}");
        assert!(ao.drain_complete);
        assert_eq!(ao.server_admitted, ao.server_completed);
        // The breaker actually cycled: forced-shed bursts trip it open
        // and the following success closes it.
        assert!(ao.breaker_opened > 0, "{ao:?}");
        assert_eq!(
            ao.breaker_opened, ao.breaker_half_opened,
            "every open probes"
        );
        assert_eq!(
            ao.breaker_half_opened, ao.breaker_closed,
            "every probe closes"
        );

        let b = run(&store, &cfg);
        assert_eq!(
            a.tallies, b.tallies,
            "tallies are a pure function of the seed"
        );
        assert_eq!(
            a.overload, b.overload,
            "shed/breaker tallies are a pure function of the seed"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_json_has_a_deterministic_overload_line() {
        let _g = crate::telemetry_lock();
        let (dir, store) = fixture("ovl-json", 0xBEEF);
        let mut cfg = TrafficConfig::overload_storm(0xBEEF);
        cfg.clients = 2;
        cfg.requests_per_client = 6;
        cfg.slo.max_shed_rate = Some(1.0);
        cfg.slo.queue_wait_p99_us = Some(5_000_000);
        cfg.slo.max_breaker_opened = Some(10_000);
        let json = run(&store, &cfg).to_json();
        assert!(json.contains("\"overload\": {"), "{json}");
        assert!(json.contains("\"drain_complete\": true"), "{json}");
        for gate in ["max_shed_rate", "queue_wait_p99_us", "max_breaker_opened"] {
            assert!(json.contains(gate), "{json}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn impossible_gate_fails_the_run() {
        let _g = crate::telemetry_lock();
        let (dir, store) = fixture("gate", 11);
        let mut cfg = TrafficConfig::storm(11);
        cfg.clients = 2;
        cfg.requests_per_client = 6;
        cfg.slo.rpc_p99_us = Some(0);
        let r = run(&store, &cfg);
        assert!(r.zero_data_loss());
        assert!(!r.all_gates_pass(), "{:?}", r.gates);
        assert!(!r.passed());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
