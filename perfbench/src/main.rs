//! One benchmark for the compress-once / decompress-many pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|scf_sweep|hot_reads> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of one workload;
//! with `--trace 1` it prints the per-layer metrics instead. Lines
//! starting with `#` carry the details (machine facts, op-plan
//! signature, data size against cache budget); the last line is the
//! result object. See `perfbench/README.md`.

mod layers;
mod machine;
mod pipeline;
mod plan;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use eri_server::{CacheStats, ServerStats};

use eri_store::StoreWriter;
use pipeline::{build_store, read_loop, verify_clean, Kind, ReadTally, Reference, Served, DD, FF};
use plan::ClientPlan;
use stats::Summary;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace,
    })
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Checks that are not ops (store verify, plan identity) — any
    /// entry makes the run incorrect.
    pub errors: Vec<String>,
    /// `"key": value` JSON fragments for the details line.
    pub details: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn detail(&mut self, key: &str, json: impl std::fmt::Display) {
        self.details.push(format!("\"{key}\": {json}"));
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(n, v, u)| {
                format!(
                    "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                    json_num(*v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0
                && self.errors.is_empty()
                && self.metrics.iter().all(|m| m.1.is_finite()),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON; anything else as `null` (which also marks
/// the run incorrect).
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// How a read workload picks its ops.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    /// One client, whole passes over the store in block order.
    Sweep,
    /// Two clients, Zipf-ish batches.
    Zipf,
}

/// The read workloads' shapes.
#[derive(Clone, Copy)]
pub struct ReadSpec {
    pub kind: Kind,
    /// Cache budget = decompressed store size / `cache_div`.
    pub cache_div: usize,
    pub traffic: Traffic,
    pub clients: usize,
}

/// `scf_sweep`: one client, the whole (dd|dd) store in block order, a
/// cache of 1/8 of it, so LRU never hits.
pub const SCF_SWEEP: ReadSpec = ReadSpec {
    kind: DD,
    cache_div: 8,
    traffic: Traffic::Sweep,
    clients: 1,
};
/// `hot_reads`: two clients, seeded Zipf-ish batches over (ff|ff), a
/// cache of half the store.
pub const HOT_READS: ReadSpec = ReadSpec {
    kind: FF,
    cache_div: 2,
    traffic: Traffic::Zipf,
    clients: 2,
};

/// Blocks per `scf_sweep` op (~166 KB raw).
pub const SWEEP_BATCH: usize = 16;
/// Throughput is the median of per-window rates over windows of about
/// this many seconds.
const RATE_WINDOW_S: f64 = 1.0;
/// `hot_reads` ops planned per client; the loop wraps around.
const HOT_PLAN_OPS: usize = 4096;

impl ReadSpec {
    #[must_use]
    pub fn raw_bytes(&self) -> usize {
        self.kind.blocks * (self.kind.config)().block_size() * 8
    }

    #[must_use]
    pub fn cache_bytes(&self) -> usize {
        self.raw_bytes() / self.cache_div
    }

    #[must_use]
    pub fn plans(&self, seed: u64) -> Vec<ClientPlan> {
        match self.traffic {
            Traffic::Sweep => vec![plan::sweep(self.kind.blocks, SWEEP_BATCH, seed)],
            Traffic::Zipf => plan::zipf(self.kind.blocks, seed, self.clients, HOT_PLAN_OPS, 8, 3.0),
        }
    }
}

/// A generated dataset, its store, and the server + clients reading it.
pub struct ReadRig {
    pub ds: qchem::EriDataset,
    pub store: PathBuf,
    pub served: Served,
    pub generate_s: f64,
}

/// The set-up a user pays: generate, build the store, mount, connect.
pub fn setup_reads(spec: &ReadSpec, dir: &Path, tag: &str) -> Result<(ReadRig, f64), String> {
    let t0 = Instant::now();
    let ds = spec.kind.generate();
    let generate_s = t0.elapsed().as_secs_f64();
    let store = dir.join(format!("{}-{tag}.eristore", spec.kind.name));
    build_store(&store, &ds, &spec.kind, true, |_, _| {})?;
    let handle = pipeline::mount(&store, spec.cache_bytes(), None)?;
    let served = Served::start(handle, &dir.join(format!("{tag}.sock")), spec.clients)?;
    Ok((
        ReadRig {
            ds,
            store,
            served,
            generate_s,
        },
        t0.elapsed().as_secs_f64(),
    ))
}

/// Warm-up before timing: one untimed pass for a sweep; for Zipf
/// traffic, windows of ops until the window hit rate settles. Returns
/// the warm-up ops and the window hit rates; `cursors` end up holding
/// each client's warm-up op count.
pub fn warm_up(
    traffic: Traffic,
    served: &mut Served,
    plans: &[ClientPlan],
    cursors: &mut [usize],
    reference: &Reference,
) -> (ReadTally, Vec<f64>) {
    const WINDOW: usize = 200;
    let mut tally = ReadTally::default();
    let mut trail = Vec::new();
    if traffic == Traffic::Sweep {
        let t = read_loop(
            &mut served.clients,
            plans,
            cursors,
            reference,
            Duration::MAX,
            plans[0].len(),
        );
        tally.absorb(t);
        return (tally, trail);
    }
    for _ in 0..40 {
        let before = served.handle.cache_stats();
        tally.absorb(read_loop(
            &mut served.clients,
            plans,
            cursors,
            reference,
            Duration::MAX,
            WINDOW,
        ));
        let hr = window_hit_rate(&before, &served.handle.cache_stats());
        let settled = trail.len() >= 2 && (hr - trail[trail.len() - 1]).abs() < 0.02;
        trail.push(hr);
        if settled {
            break;
        }
    }
    (tally, trail)
}

fn window_hit_rate(before: &CacheStats, after: &CacheStats) -> f64 {
    let lookups = after.lookups - before.lookups;
    (after.hits - before.hits) as f64 / lookups.max(1) as f64
}

/// Cache and server counters over one phase.
pub struct PhaseCounters {
    pub cache_before: CacheStats,
    pub cache_after: CacheStats,
    pub server_before: ServerStats,
    pub server_after: ServerStats,
}

impl PhaseCounters {
    pub fn hit_rate(&self) -> f64 {
        window_hit_rate(&self.cache_before, &self.cache_after)
    }
}

/// The timed closed loop of a read workload.
pub fn timed_reads(
    served: &mut Served,
    plans: &[ClientPlan],
    cursors: &mut [usize],
    reference: &Reference,
    seconds: f64,
) -> (ReadTally, f64, PhaseCounters) {
    let cache_before = served.handle.cache_stats();
    let server_before = served.handle.stats();
    let t = Instant::now();
    let tally = read_loop(
        &mut served.clients,
        plans,
        cursors,
        reference,
        Duration::from_secs_f64(seconds),
        usize::MAX,
    );
    let wall = t.elapsed().as_secs_f64();
    let counters = PhaseCounters {
        cache_before,
        cache_after: served.handle.cache_stats(),
        server_before,
        server_after: served.handle.stats(),
    };
    (tally, wall, counters)
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Median of the set-up times, reported as `setup_s`.
fn setup_metric(r: &mut Report, times: &[f64]) {
    r.metric("setup_s", stats::median(times), "s");
    r.detail("setup_s_each", format!("{times:?}"));
}

/// Median op latency as a metric; the tails on the details line. The
/// tails are printed, not gated: on a shared 2-vCPU VM a burst of
/// steal time multiplies them for whole runs while the median moves
/// little, so their run-to-run spread exceeds any bound the benchmark
/// may set.
fn latency_metrics(r: &mut Report, lat_us: &[f64]) {
    let Some(s) = Summary::of_windows(lat_us).filter(|s| s.tail_q >= 0.9) else {
        r.errors
            .push(format!("only {} ops: too few for a p90", lat_us.len()));
        return;
    };
    r.metric("op_p50_us", s.p50, "us");
    let us = |v: f64| format!("{{\"value\": {}, \"unit\": \"us\"}}", json_num(v));
    r.detail("op_p90_us", us(s.p90));
    // The highest percentile with ten samples beyond it.
    r.detail(
        &format!("op_p{}_us", (s.tail_q * 100.0).round()),
        us(s.tail),
    );
    r.detail("op_samples", s.n);
    r.detail("op_tail_windows", s.windows);
}

fn finish_report(r: &mut Report) {
    r.metric("peak_rss_mb", machine::peak_rss_mb(), "MB");
    let frac = r.failed as f64 / r.attempted.max(1) as f64;
    r.detail(
        "failed_frac",
        format!("{{\"value\": {}, \"unit\": \"ratio\"}}", json_num(frac)),
    );
}

/// One read workload, end to end.
fn run_reads(spec: &ReadSpec, args: &Args, dir: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let (mut rig, secs) = setup_reads(spec, dir, "s0")?;
    setups.push(secs);
    for i in 1..SETUPS {
        rig.served.shutdown()?;
        let secs;
        (rig, secs) = setup_reads(spec, dir, &format!("s{i}"))?;
        setups.push(secs);
    }
    setup_metric(&mut r, &setups);

    let plans = spec.plans(args.seed);
    r.detail(
        "plan_signature",
        format!("\"{:016x}\"", plan::signature(&plans)),
    );
    let reference = Reference::build(&rig.store, &rig.ds)?;
    let mut cursors = vec![0usize; plans.len()];
    let tw = Instant::now();
    let (warm, trail) = warm_up(
        spec.traffic,
        &mut rig.served,
        &plans,
        &mut cursors,
        &reference,
    );
    r.detail("warmup_s", tw.elapsed().as_secs_f64());
    r.detail("warmup_hit_rates", format!("{trail:?}"));
    let (tally, wall, counters) = timed_reads(
        &mut rig.served,
        &plans,
        &mut cursors,
        &reference,
        args.seconds,
    );

    let windows = ((wall / RATE_WINDOW_S).round() as usize).max(1);
    r.metric(
        "throughput_mb_s",
        stats::windowed_rate_mb_s(&tally.done, wall, windows),
        "MB/s",
    );
    r.detail("throughput_mb_s_whole_run", tally.bytes as f64 / 1e6 / wall);
    latency_metrics(&mut r, &tally.lat_us);
    r.metric(
        "compression_ratio",
        spec.raw_bytes() as f64 / file_len(&rig.store) as f64,
        "x",
    );
    r.attempted = warm.attempted + tally.attempted;
    r.failed = warm.failed + tally.failed;
    r.detail("timed_hit_rate", counters.hit_rate());
    r.detail(
        "data_vs_cache",
        format!(
            "{{\"raw_bytes\": {}, \"store_bytes\": {}, \"cache_budget_bytes\": {}}}",
            spec.raw_bytes(),
            file_len(&rig.store),
            spec.cache_bytes()
        ),
    );
    rig.served.shutdown()?;
    finish_report(&mut r);
    Ok(r)
}

/// Ops and checks of one ingest round over both datasets.
pub struct IngestRound {
    pub lat_us: Vec<f64>,
    pub busy_s: f64,
    pub raw_bytes: u64,
    pub store_bytes: u64,
    pub failed: u64,
}

/// Ingests the datasets side by side into durable stores:
/// `create_durable`, then ops that each append the next batch to every
/// store (`append_blocks`, ~1.3 MB raw in all), then `finish`. Then
/// checks each store: it reopens and verifies clean, and is
/// byte-identical to `expect` (the first round's files, whose blocks
/// were decoded and held to the error bound).
pub fn ingest_round(
    sets: &[(Kind, qchem::EriDataset)],
    dir: &Path,
    expect: &mut Vec<Vec<u8>>,
) -> IngestRound {
    let mut round = IngestRound {
        lat_us: Vec::new(),
        busy_s: 0.0,
        raw_bytes: 0,
        store_bytes: 0,
        failed: 0,
    };
    let batch_values = |k: &Kind| k.ingest_batch * k.geometry().block_size();
    let ops = sets
        .iter()
        .map(|(k, d)| d.values.len().div_ceil(batch_values(k)))
        .max()
        .unwrap_or(0);
    let paths: Vec<PathBuf> = sets
        .iter()
        .map(|(k, _)| dir.join(format!("ingest-{}.eristore", k.name)))
        .collect();
    let t = Instant::now();
    let mut write = || -> Result<(), String> {
        let mut writers = Vec::new();
        for ((k, _), path) in sets.iter().zip(&paths) {
            let w =
                StoreWriter::create_durable(path, k.geometry(), pipeline::EB, k.checkpoint_every())
                    .map_err(|e| format!("create {}: {e}", path.display()))?;
            writers.push(w);
        }
        for op in 0..ops {
            let t = Instant::now();
            for ((k, d), w) in sets.iter().zip(&mut writers) {
                if let Some(batch) = d.values.chunks(batch_values(k)).nth(op) {
                    w.append_blocks(batch).map_err(|e| format!("append: {e}"))?;
                }
            }
            round.lat_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        for w in writers {
            w.finish().map_err(|e| format!("finish: {e}"))?;
        }
        Ok(())
    };
    let written = write();
    round.busy_s = t.elapsed().as_secs_f64();
    let checked = written.and_then(|()| {
        let mut stored = 0;
        for (i, ((_, ds), path)) in sets.iter().zip(&paths).enumerate() {
            verify_clean(path)?;
            let bytes = std::fs::read(path).map_err(|e| e.to_string())?;
            match expect.get(i) {
                Some(want) if *want != bytes => {
                    return Err("store bytes differ between rounds".into())
                }
                Some(_) => {}
                None if Reference::build(path, ds)?.within_eb.iter().all(|&ok| ok) => {
                    expect.push(bytes.clone());
                }
                None => return Err("a stored block breaks the error bound".into()),
            }
            stored += bytes.len() as u64;
        }
        Ok(stored)
    });
    match checked {
        Ok(stored) => {
            round.raw_bytes = sets.iter().map(|(_, d)| d.byte_size() as u64).sum();
            round.store_bytes = stored;
        }
        Err(e) => {
            eprintln!("ingest: {e}");
            round.failed = ops as u64;
        }
    }
    // Ops that never ran still count as attempted.
    round.lat_us.resize(ops, f64::NAN);
    round
}

/// The `ingest` datasets, (dd|dd) and (ff|ff), each with its blocks in
/// the order of its seeded plan; returns the plans too.
pub fn ingest_sets(seed: u64) -> (Vec<(Kind, qchem::EriDataset)>, Vec<ClientPlan>) {
    [DD, FF]
        .into_iter()
        .map(|k| {
            let plan = plan::sweep(k.blocks, k.ingest_batch, seed);
            let mut ds = k.generate();
            let ordered = plan
                .iter()
                .flatten()
                .flat_map(|&b| ds.block(b as usize).to_vec())
                .collect();
            ds.values = ordered;
            ((k, ds), plan)
        })
        .unzip()
}

fn run_ingest(args: &Args, dir: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let mut setups = Vec::new();
    let (mut sets, mut plan) = (Vec::new(), Vec::new());
    for _ in 0..SETUPS {
        let t = Instant::now();
        (sets, plan) = ingest_sets(args.seed);
        setups.push(t.elapsed().as_secs_f64());
    }
    setup_metric(&mut r, &setups);
    r.detail(
        "plan_signature",
        format!("\"{:016x}\"", plan::signature(&plan)),
    );

    let mut expect = Vec::new();
    let (mut lat, mut rates, mut busy, mut raw, mut stored) =
        (Vec::new(), Vec::new(), 0.0, 0u64, 0u64);
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let round = ingest_round(&sets, dir, &mut expect);
        r.attempted += round.lat_us.len() as u64;
        r.failed += round.failed;
        lat.extend(round.lat_us.into_iter().filter(|v| v.is_finite()));
        rates.push(round.raw_bytes as f64 / 1e6 / round.busy_s);
        busy += round.busy_s;
        raw += round.raw_bytes;
        stored = round.store_bytes;
    }
    // Median over rounds: a burst of host noise slows a few rounds,
    // not the reported rate.
    r.metric("throughput_mb_s", stats::median(&rates), "MB/s");
    r.detail("throughput_mb_s_whole_run", raw as f64 / 1e6 / busy);
    latency_metrics(&mut r, &lat);
    let total_raw: usize = sets.iter().map(|(_, d)| d.byte_size()).sum();
    r.metric("compression_ratio", total_raw as f64 / stored as f64, "x");
    r.detail("rounds", rates.len());
    r.detail("raw_bytes_per_round", total_raw);
    finish_report(&mut r);
    Ok(r)
}

fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut r = match (args.workload.as_str(), args.trace) {
        ("ingest", false) => run_ingest(args, dir)?,
        ("scf_sweep", false) => run_reads(&SCF_SWEEP, args, dir)?,
        ("hot_reads", false) => run_reads(&HOT_READS, args, dir)?,
        (w @ ("ingest" | "scf_sweep" | "hot_reads"), true) => {
            layers::run(w, args.seed, args.seconds, dir)?
        }
        (other, _) => {
            return Err(format!(
                "unknown workload {other} (ingest, scf_sweep, hot_reads)"
            ))
        }
    };
    r.detail("workload", format!("\"{}\"", args.workload));
    r.detail("seed", args.seed);
    r.detail("trace", u8::from(args.trace));
    r.detail("machine", machine::facts_json(dir));
    Ok(r)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let dir = pipeline::work_dir(&args.workload);
    let result = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(r) => {
            for e in &r.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            println!("# {{{}}}", r.details.join(", "));
            println!("{}", r.result_line());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
