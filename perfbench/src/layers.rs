//! The traced run (`--trace 1`): per-layer metrics.
//!
//! Layers are timed from outside, by calling each module's public
//! functions on the same data and the same seeded op plan the
//! end-to-end run uses. For read ops the replay goes down the blocking
//! path one boundary per pass, each pass over the same ops: the remote
//! round trips (`RemoteClient::read_blocks`), the same ids in process
//! against a mirror mount (`ServerHandle::read_blocks`), and each block
//! that mirror fetched from the store read directly
//! (`StoreReader::read_block`) with its CRC and decode
//! (`checksum::crc32`, `pastri::decompress`). Spans of one op share its
//! op id. A boundary's self time is its span minus the spans of the
//! boundary below on the same op, so the layers of an op add up to its
//! remote round trip; the remainder against the untraced `op_p50_us` is
//! reported. The program itself records nothing: its telemetry recorder
//! stays off.

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bitio::BitWriter;
use eri_server::protocol::{frame_bytes, Message, ReadResponse, WireBlock};
use eri_store::{RetryPolicy, StoreReader};
use pastri::{compress_block, CompressionStats, Compressor, CompressorOptions, Quantizer};
use qchem::EriDataset;
use rayon::prelude::*;

use crate::pipeline::{self, build_store, Kind, Probe, ReadTally, Reference, Served, EB};
use crate::plan::{self, ClientPlan};
use crate::stats::{median, quantile_sorted, Summary};
use crate::trace::{self, Recorder, Span, TimingSource, NO_PARENT};
use crate::{
    ingest_round, ingest_sets, setup_reads, timed_reads, warm_up, ReadSpec, Report, HOT_READS,
    SCF_SWEEP,
};

/// Minimum time each micro-timing loop runs.
const MIN_LOOP_S: f64 = 0.25;
/// Store builds per mode when comparing durable and plain writes.
const BUILD_REPS: usize = 3;
/// Spans written out in full (per-name totals are always written).
const SPANS_KEPT: usize = 5000;

/// Repeats `f` until `MIN_LOOP_S` has elapsed; returns ns per unit,
/// where `f` reports the units of work it did.
fn ns_per_unit(mut f: impl FnMut() -> u64) -> f64 {
    let t = Instant::now();
    let mut units = 0;
    while units == 0 || t.elapsed().as_secs_f64() < MIN_LOOP_S {
        units += f();
    }
    t.elapsed().as_nanos() as f64 / units as f64
}

pub fn run(workload: &str, seed: u64, seconds: f64, dir: &Path) -> Result<Report, String> {
    let mut r = Report::default();
    let rec = Arc::new(Recorder::default());
    let mut spans = Vec::new();
    let third = seconds / 3.0;
    match workload {
        "ingest" => {
            let t = Instant::now();
            let (sets, _) = ingest_sets(seed);
            r.metric("qchem.generate_s", t.elapsed().as_secs_f64(), "s");
            let mut expect = Vec::new();
            let (mut raw, mut busy, start) = (0u64, 0.0, Instant::now());
            while busy == 0.0 || start.elapsed().as_secs_f64() < third {
                let round = ingest_round(&sets, dir, &mut expect);
                r.attempted += round.lat_us.len() as u64;
                r.failed += round.failed;
                raw += round.raw_bytes;
                busy += round.busy_s;
            }
            let untraced = raw as f64 / busy;
            let refs: Vec<(Kind, &EriDataset)> = sets.iter().map(|(k, d)| (*k, d)).collect();
            let traced = compress_layers(&mut r, &rec, &refs, dir)?;
            r.metric(
                "trace.overhead_pct",
                (untraced - traced) / untraced * 100.0,
                "%",
            );
            trace::append_spans(&mut spans, rec.take());
            // The read layers are measured on a sweep of the ingested
            // (dd|dd) data; ingest itself reads nothing back.
            let (rig, _) = setup_reads(&SCF_SWEEP, dir, "read")?;
            let (read, _) = read_layers(&mut r, &rec, &SCF_SWEEP, seed, rig, third / 2.0, false)?;
            trace::append_spans(&mut spans, read);
        }
        _ => {
            let spec = if workload == "scf_sweep" {
                SCF_SWEEP
            } else {
                HOT_READS
            };
            let (rig, _) = setup_reads(&spec, dir, "u")?;
            r.metric("qchem.generate_s", rig.generate_s, "s");
            compress_layers(&mut r, &rec, &[(spec.kind, &rig.ds)], dir)?;
            trace::append_spans(&mut spans, rec.take());
            let (read, overhead) = read_layers(&mut r, &rec, &spec, seed, rig, third, true)?;
            r.metric("trace.overhead_pct", overhead, "%");
            trace::append_spans(&mut spans, read);
        }
    }
    let out = Path::new(".bench_out").join(format!("trace-{workload}-seed{seed}.jsonl"));
    trace::write_trace(&out, &spans, SPANS_KEPT)
        .map_err(|e| format!("write {}: {e}", out.display()))?;
    r.detail("trace_file", format!("\"{}\"", out.display()));
    r.detail("spans_recorded", spans.len());
    Ok(r)
}

/// Compress-side layers on `sets`. Returns the traced ingest rate
/// (raw bytes per second through durable store builds).
fn compress_layers(
    r: &mut Report,
    rec: &Recorder,
    sets: &[(Kind, &EriDataset)],
    dir: &Path,
) -> Result<f64, String> {
    let opts = CompressorOptions::default();
    let quant = Quantizer::new(EB);
    let blocks: usize = sets.iter().map(|(_, d)| d.num_blocks()).sum();
    let values: usize = sets.iter().map(|(_, d)| d.values.len()).sum();
    let raw = (values * 8) as f64;
    let each_block = |f: &mut dyn FnMut(&pastri::BlockGeometry, &Compressor, &[f64])| {
        for (k, d) in sets {
            let geom = k.geometry();
            let c = Compressor::new(geom, EB);
            for b in d.values.chunks(geom.block_size()) {
                f(&geom, &c, b);
            }
        }
        blocks as u64
    };

    let fit = ns_per_unit(|| {
        each_block(&mut |g, _, b| {
            std::hint::black_box(pastri::fit_pattern(opts.metric, g, std::hint::black_box(b)));
        })
    });
    r.metric("pastri.fit_pattern_ns_per_block", fit, "ns");
    let mut w = BitWriter::new();
    let block_ns = ns_per_unit(|| {
        each_block(&mut |g, _, b| {
            w.clear();
            compress_block(std::hint::black_box(b), g, &quant, &opts, &mut w, None);
            std::hint::black_box(w.bit_len());
        })
    });
    r.metric("pastri.compress_block_ns_per_block", block_ns, "ns");
    let container_ns = ns_per_unit(|| {
        each_block(&mut |_, c, b| {
            std::hint::black_box(c.compress(std::hint::black_box(b)));
        })
    });
    r.metric("pastri.container_ns_per_block", container_ns, "ns");
    let one_thread = raw / (container_ns * blocks as f64 / 1e9) / 1e6;
    r.metric("pastri.compress_mb_s_1t", one_thread, "MB/s");
    let crew_ns = ns_per_unit(|| {
        for (k, d) in sets {
            let c = Compressor::new(k.geometry(), EB);
            let out: Vec<Vec<u8>> = d
                .values
                .par_chunks(k.geometry().block_size())
                .map(|b| c.compress(b))
                .collect();
            std::hint::black_box(out);
        }
        blocks as u64
    });
    let threads = rayon::current_num_threads();
    let crew = raw / (crew_ns * blocks as f64 / 1e9) / 1e6;
    r.metric(
        "pastri.parallel_efficiency",
        crew / (threads as f64 * one_thread),
        "ratio",
    );
    r.detail("crew_threads", threads);

    // Exact codec accounting, block by block, as the store compresses.
    let mut st = CompressionStats::default();
    each_block(&mut |_, c, b| st.merge(&c.compress_with_stats(b).1));
    let per_value = |bits: u64| bits as f64 / values as f64;
    r.metric(
        "pastri.bits_per_value.header",
        per_value(st.header_bits),
        "bit",
    );
    r.metric("pastri.bits_per_value.pq", per_value(st.pq_bits), "bit");
    r.metric("pastri.bits_per_value.sq", per_value(st.sq_bits), "bit");
    r.metric("pastri.bits_per_value.ecq", per_value(st.ecq_bits), "bit");
    for (i, kind) in ["all_zero", "pattern_only", "dense", "sparse", "verbatim"]
        .iter()
        .enumerate()
    {
        r.metric(
            format!("pastri.block_kind_share.{kind}"),
            st.kind_counts[i] as f64 / st.blocks as f64,
            "ratio",
        );
    }
    let coded_bits = st.header_bits + st.pq_bits + st.sq_bits + st.ecq_bits + st.verbatim_bits;

    // Durable against plain store builds of the same batches; the
    // durable build's batches are replayed through the crew alone to
    // split `append_blocks` into compression and store work.
    let (mut durable_s, mut plain_s, mut append_ns, mut finish_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut store_bytes = 0u64;
    for rep in 0..BUILD_REPS {
        for durable in [true, false] {
            let (mut total, mut append, mut compress, mut finish) = (0.0, 0.0, 0.0, 0.0);
            store_bytes = 0;
            for (k, d) in sets {
                let path = dir.join(format!("layers-{}-{rep}-{durable}.eristore", k.name));
                let c = Compressor::new(k.geometry(), EB);
                let t = Instant::now();
                let mut replay = 0.0;
                let fin = build_store(&path, d, k, durable, |chunk, took| {
                    append += took.as_secs_f64();
                    if durable {
                        rec.record_done("store.append_blocks", rep as u64, took);
                        let t = Instant::now();
                        let (out, _) = rec.time("compress.crew", rep as u64, NO_PARENT, || {
                            chunk
                                .par_chunks(k.geometry().block_size())
                                .map(|b| c.compress(b))
                                .collect::<Vec<_>>()
                        });
                        std::hint::black_box(out);
                        replay += t.elapsed().as_secs_f64();
                    }
                })?;
                total += t.elapsed().as_secs_f64() - replay;
                compress += replay;
                finish += fin.as_secs_f64();
                store_bytes += std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
                pipeline::verify_clean(&path)?;
                let _ = std::fs::remove_file(&path);
            }
            if durable {
                durable_s.push(total);
                append_ns.push((append - compress) * 1e9 / blocks as f64);
                finish_ms.push(finish * 1e3);
            } else {
                plain_s.push(total);
            }
        }
    }
    let (dur, plain) = (median(&durable_s), median(&plain_s));
    r.metric("store.append_ns_per_block", median(&append_ns), "ns");
    r.metric("store.finish_ms", median(&finish_ms), "ms");
    r.metric(
        "store.durable_overhead_pct",
        (dur - plain) / plain * 100.0,
        "%",
    );
    r.metric(
        "store.bytes_per_raw_byte",
        store_bytes as f64 / raw,
        "ratio",
    );
    r.metric(
        "pastri.container_overhead_bytes_per_block",
        (store_bytes as f64 - coded_bits as f64 / 8.0) / blocks as f64,
        "B",
    );
    Ok(raw / dur)
}

/// The same read served in process on the mirror mount.
type MirrorReads<'a> = &'a dyn Fn(&[u64]) -> Option<Vec<Arc<Vec<f64>>>>;

/// Per-op boundaries of one traced read op (span indices).
struct OpSpans {
    ids: Vec<u64>,
    /// Every boundary served this op's values correctly.
    ok: bool,
    remote: usize,
    inproc: usize,
    /// Blocks the mirror fetched from the store for this op.
    fetched: Vec<u64>,
    /// Per store-fetched block: direct read, CRC, decode.
    misses: Vec<(usize, usize, usize)>,
    /// Values the remote call delivered.
    bytes: u64,
}

/// Read-side layers: an untraced phase on the plain mount `rig`, then
/// the traced replay against fresh mounts over timing sources. Returns
/// the spans and the tracing overhead on read throughput, in percent.
fn read_layers(
    r: &mut Report,
    rec: &Arc<Recorder>,
    spec: &ReadSpec,
    seed: u64,
    mut rig: crate::ReadRig,
    phase_s: f64,
    count_ops: bool,
) -> Result<(Vec<Span>, f64), String> {
    let plans = spec.plans(seed);
    r.detail(
        "plan_signature",
        format!("\"{:016x}\"", plan::signature(&plans)),
    );
    let reference = Reference::build(&rig.store, &rig.ds)?;
    let mut tally = ReadTally::default();

    // Untraced: warm-up, the timed closed loop, then one op at a time
    // in the replay's order (the base for the tracing overhead).
    let mut cursors = vec![0usize; plans.len()];
    let (warm, _) = warm_up(
        spec.traffic,
        &mut rig.served,
        &plans,
        &mut cursors,
        &reference,
    );
    let warm_cursors = cursors.clone();
    tally.absorb(warm);
    let (timed, _, counters) = timed_reads(
        &mut rig.served,
        &plans,
        &mut cursors.clone(),
        &reference,
        phase_s,
    );
    let op_p50 = Summary::of(&timed.lat_us).map_or(f64::NAN, |s| s.p50);
    tally.absorb(timed);
    let mut seq_cursors = warm_cursors.clone();
    let seq = sequential(
        &mut rig.served,
        &plans,
        &mut seq_cursors,
        &reference,
        phase_s,
        None,
    );
    let untraced_rate = seq.bytes as f64 / seq.lat_us.iter().sum::<f64>();
    tally.absorb(seq);

    let c = &counters;
    let lookups = (c.cache_after.lookups - c.cache_before.lookups).max(1) as f64;
    r.metric("cache.hit_rate", c.hit_rate(), "ratio");
    r.metric(
        "cache.evictions_per_lookup",
        (c.cache_after.evictions - c.cache_before.evictions) as f64 / lookups,
        "ratio",
    );
    r.metric(
        "cache.high_water_frac",
        c.cache_after.high_water_bytes as f64 / c.cache_after.capacity_bytes as f64,
        "ratio",
    );
    r.metric(
        "server.store_reads_per_block",
        (c.server_after.store_reads - c.server_before.store_reads) as f64
            / (c.server_after.blocks - c.server_before.blocks).max(1) as f64,
        "ratio",
    );
    let mut client_retries = 0;
    let mut frame_errors = 0;
    let mut shed = 0;
    let mut repairs = 0;
    let mut transient = 0;
    let mut fold_served = |s: &Served| {
        for cl in &s.clients {
            client_retries += cl.stats().retries;
            frame_errors += cl.stats().frame_errors;
        }
        shed += s.stop.admission().stats().shed;
        repairs += s.handle.stats().reads.blocks_repaired;
        transient += s.handle.stats().reads.transient_retries;
    };
    fold_served(&rig.served);
    let store = rig.store.clone();
    rig.served.shutdown()?;

    // Traced: the remote mount R and the in-process mirror L share one
    // recorder; each has its own log of source-read offsets.
    let probe =
        |rec: &Arc<Recorder>| -> Probe { (Arc::clone(rec), Arc::new(Mutex::new(Vec::new()))) };
    let (probe_r, probe_l, probe_d) = (probe(rec), probe(rec), probe(rec));
    let mut remote = Served::start(
        pipeline::mount(&store, spec.cache_bytes(), Some(&probe_r))?,
        &store.with_extension("traced.sock"),
        spec.clients,
    )?;
    let mirror = pipeline::mount(&store, spec.cache_bytes(), Some(&probe_l))?;
    let file = std::fs::File::open(&store).map_err(|e| e.to_string())?;
    let mut direct = StoreReader::from_source(
        TimingSource::new(file, Arc::clone(rec), Arc::clone(&probe_d.1)),
        RetryPolicy::default(),
    )
    .map_err(|e| format!("open direct reader: {e}"))?;
    let block_at: HashMap<u64, u64> = pipeline::store_index(&store)?
        .iter()
        .enumerate()
        .map(|(b, &(off, _))| (off, b as u64))
        .collect();

    // Mirror the untraced warm-up on both mounts, so their caches
    // start the traced phase as the timed phase started.
    let mut cursors = vec![0usize; plans.len()];
    let mirror_reads = |ids: &[u64]| -> Option<Vec<Arc<Vec<f64>>>> {
        let ids: Vec<usize> = ids.iter().map(|&i| i as usize).collect();
        mirror.read_blocks(&ids).ok()
    };
    let warm_ops: usize = warm_cursors.iter().sum();
    let mirror_fn: MirrorReads = &mirror_reads;
    let warm = sequential(
        &mut remote,
        &plans,
        &mut cursors,
        &reference,
        f64::INFINITY,
        Some((warm_cursors.as_slice(), mirror_fn)),
    );
    tally.absorb(warm);
    debug_assert_eq!(cursors.iter().sum::<usize>(), warm_ops);
    rec.take();
    for p in [&probe_r, &probe_l, &probe_d] {
        p.1.lock().expect("offset log poisoned").clear();
    }

    // Pass 1: the remote round trips, timed as one closed loop.
    let mut ops: Vec<OpSpans> = Vec::new();
    let start = Instant::now();
    while ops.len() < 21 || start.elapsed().as_secs_f64() < phase_s {
        let k = ops.len() as u64;
        let ci = k as usize % plans.len();
        let ids = plans[ci][cursors[ci] % plans[ci].len()].clone();
        cursors[ci] += 1;
        let ((_, ok, bytes), a) = rec.time("client.read_blocks", k, NO_PARENT, || {
            pipeline::remote_op(&mut remote.clients[ci], &ids, &reference)
        });
        ops.push(OpSpans {
            ids,
            ok,
            remote: a as usize,
            inproc: 0,
            fetched: Vec::new(),
            misses: Vec::new(),
            bytes,
        });
    }
    // Pass 2: the same ops in process on the mirror, whose cache walks
    // through the same states; its source reads name the misses.
    for (k, op) in ops.iter_mut().enumerate() {
        let (got, b) = rec.time("server.read_blocks", k as u64, NO_PARENT, || {
            mirror_reads(&op.ids)
        });
        op.ok &= got.is_some_and(|v| {
            v.iter()
                .zip(&op.ids)
                .all(|(blk, &id)| reference.accepts(id, blk))
        });
        op.inproc = b as usize;
        op.fetched = std::mem::take(&mut *probe_l.1.lock().expect("offset log poisoned"))
            .iter()
            .filter_map(|off| block_at.get(off).copied())
            .collect();
    }
    // Pass 3: each of those blocks read directly, then its CRC and
    // decode on the stored container.
    for (k, op) in ops.iter_mut().enumerate() {
        let k = k as u64;
        for &id in &op.fetched {
            let (vals, c) = rec.time("store.read_block", k, NO_PARENT, || {
                direct.read_block(id as usize)
            });
            op.ok &= vals.is_ok_and(|v| reference.accepts(id, &v));
            let container = &reference.containers[id as usize];
            let (_, d) = rec.time("checksum.crc32", k, NO_PARENT, || {
                std::hint::black_box(checksum::crc32(container))
            });
            let (vals, e) = rec.time("pastri.decompress", k, NO_PARENT, || {
                pastri::decompress(container)
            });
            op.ok &= vals.is_ok_and(|v| reference.accepts(id, &v));
            op.misses.push((c as usize, d as usize, e as usize));
        }
    }
    tally.attempted += ops.len() as u64;
    tally.failed += ops.iter().filter(|o| !o.ok).count() as u64;
    fold_served(&remote);
    let mstats = mirror.stats().reads;
    repairs += mstats.blocks_repaired + direct.read_stats().blocks_repaired;
    transient += mstats.transient_retries + direct.read_stats().transient_retries;
    remote.shutdown()?;

    let spans: Vec<Span> = rec.take();
    let selfs = trace::self_times(&spans);
    account(r, &spans, &selfs, &ops, op_p50);
    let traced_rate = ops.iter().map(|o| o.bytes).sum::<u64>() as f64
        / ops
            .iter()
            .map(|o| spans[o.remote].dur() as f64 / 1e3)
            .sum::<f64>();
    let overhead = (untraced_rate - traced_rate) / untraced_rate * 100.0;

    r.metric("store.repairs", repairs as f64, "count");
    r.metric("store.transient_retries", transient as f64, "count");
    r.metric("client.retries", client_retries as f64, "count");
    r.metric("client.frame_errors", frame_errors as f64, "count");
    r.metric("admission.shed", shed as f64, "count");

    // Codec and checksum rates on the containers of the served blocks.
    let served: BTreeSet<u64> = plans.iter().flatten().flatten().copied().collect();
    let containers: Vec<&Vec<u8>> = served
        .iter()
        .map(|&id| &reference.containers[id as usize])
        .collect();
    let decode_ns = ns_per_unit(|| {
        for c in &containers {
            std::hint::black_box(
                pastri::decompress(std::hint::black_box(c))
                    .map(|v| v.len())
                    .unwrap_or(0),
            );
        }
        containers.len() as u64
    });
    r.metric("pastri.decompress_ns_per_block", decode_ns, "ns");
    let payload_bytes: usize = containers.iter().map(|c| c.len()).sum();
    let payload_ns = ns_per_unit(|| {
        for c in &containers {
            std::hint::black_box(checksum::crc32(std::hint::black_box(c)));
        }
        payload_bytes as u64
    });
    r.metric("checksum.crc32_mb_s.payload", 1e3 / payload_ns, "MB/s");

    // Response frames as the PTRF encoder lays them out, per op shape.
    let values_per_block = spec.kind.geometry().block_size();
    let mut frame_len = HashMap::new();
    let (mut frame_total, mut value_total) = (0usize, 0usize);
    for op in plans.iter().flatten() {
        let len = *frame_len.entry(op.len()).or_insert_with(|| {
            let blocks = vec![WireBlock::Values(vec![0.0; values_per_block]); op.len()];
            frame_bytes(&Message::ReadResponse(ReadResponse {
                request_id: 0,
                blocks,
            }))
            .map_or(0, |f| f.len())
        });
        frame_total += len;
        value_total += op.len() * values_per_block;
    }
    r.metric(
        "wire.response_bytes_per_value",
        frame_total as f64 / value_total as f64,
        "B",
    );
    r.detail(
        "wire_response_bytes_per_value",
        "\"computed from the PTRF frame layout\"",
    );
    let frame = vec![0xa5u8; frame_total / plans.iter().map(Vec::len).sum::<usize>()];
    let frame_ns = ns_per_unit(|| {
        std::hint::black_box(checksum::crc32(std::hint::black_box(&frame)));
        frame.len() as u64
    });
    r.metric("checksum.crc32_mb_s.frame", 1e3 / frame_ns, "MB/s");
    r.detail(
        "crc_sizes_bytes",
        format!(
            "{{\"payload_mean\": {}, \"frame_mean\": {}}}",
            payload_bytes / containers.len(),
            frame.len()
        ),
    );

    if count_ops {
        r.attempted += tally.attempted;
        r.failed += tally.failed;
    } else if tally.failed > 0 {
        r.errors
            .push(format!("{} read-back ops failed", tally.failed));
    }
    Ok((spans, overhead))
}

/// Issues ops one at a time, round-robin over the clients, from their
/// cursors: until `limit_s` elapses, or, with `mirror`, exactly the
/// given op count per client, repeating each op in process on the
/// mirror mount.
fn sequential(
    served: &mut Served,
    plans: &[ClientPlan],
    cursors: &mut [usize],
    reference: &Reference,
    limit_s: f64,
    mirror: Option<(&[usize], MirrorReads)>,
) -> ReadTally {
    let mut t = ReadTally::default();
    let start = Instant::now();
    let limit = Duration::from_secs_f64(limit_s.min(1e6));
    for k in 0.. {
        let ci = k % plans.len();
        match mirror {
            Some((counts, _)) => {
                if cursors.iter().zip(counts).all(|(c, n)| c >= n) {
                    break;
                }
                if cursors[ci] >= counts[ci] {
                    continue;
                }
            }
            None if start.elapsed() >= limit && t.attempted >= 21 => break,
            None => {}
        }
        let ids = &plans[ci][cursors[ci] % plans[ci].len()];
        cursors[ci] += 1;
        let (us, ok, bytes) = pipeline::remote_op(&mut served.clients[ci], ids, reference);
        let mirrored = mirror.is_none_or(|(_, f)| f(ids).is_some());
        t.lat_us.push(us);
        t.done.push((start.elapsed().as_secs_f64(), bytes));
        t.attempted += 1;
        t.failed += u64::from(!(ok && mirrored));
        t.bytes += bytes;
    }
    t
}

/// Splits each traced op into layer self times along its blocking
/// path and reports them, with the remainder against `op_p50_us`.
fn account(r: &mut Report, spans: &[Span], selfs: &[u64], ops: &[OpSpans], op_p50_us: f64) {
    let dur = |i: usize| spans[i].dur() as f64 / 1e3;
    // Per op: wire, server, store, source, crc, decode (µs).
    let parts: Vec<[f64; 6]> = ops
        .iter()
        .map(|o| {
            let direct: f64 = o.misses.iter().map(|m| dur(m.0)).sum();
            let source: f64 = o
                .misses
                .iter()
                .map(|m| dur(m.0) - selfs[m.0] as f64 / 1e3)
                .sum();
            let crc: f64 = o.misses.iter().map(|m| dur(m.1)).sum();
            let decode: f64 = o.misses.iter().map(|m| dur(m.2)).sum();
            [
                dur(o.remote) - dur(o.inproc),
                dur(o.inproc) - direct,
                direct - source - crc - decode,
                source,
                crc,
                decode,
            ]
        })
        .collect();
    let mut remote: Vec<f64> = ops.iter().map(|o| dur(o.remote)).collect();
    remote.sort_by(f64::total_cmp);
    let (lo, hi) = (quantile_sorted(&remote, 0.4), quantile_sorted(&remote, 0.6));
    // Mean of each layer over the ops around the median round trip:
    // means add up, so the layers sum to that band's round trip.
    let band: Vec<&[f64; 6]> = ops
        .iter()
        .zip(&parts)
        .filter(|(o, _)| (lo..=hi).contains(&dur(o.remote)))
        .map(|(_, p)| p)
        .collect();
    let names = ["wire", "server", "store", "source_read", "crc32", "decode"];
    let mut accounted = 0.0;
    for (i, name) in names.iter().enumerate() {
        let mean = band.iter().map(|p| p[i]).sum::<f64>() / band.len().max(1) as f64;
        accounted += mean;
        r.metric(format!("path.{name}_self_us"), mean, "us");
    }
    r.metric("path.op_p50_us", op_p50_us, "us");
    r.metric("path.traced_op_p50_us", quantile_sorted(&remote, 0.5), "us");
    r.metric("path.unaccounted_us", op_p50_us - accounted, "us");

    let inproc: Vec<f64> = ops.iter().map(|o| dur(o.inproc)).collect();
    r.metric("server.read_blocks_us", median(&inproc), "us");
    let wire: Vec<f64> = parts.iter().map(|p| p[0]).collect();
    r.metric("wire.overhead_us", median(&wire), "us");
    let direct: Vec<f64> = ops
        .iter()
        .flat_map(|o| o.misses.iter().map(|m| dur(m.0)))
        .collect();
    r.metric(
        "store.read_block_us",
        direct.iter().sum::<f64>() / direct.len().max(1) as f64,
        "us",
    );

    // In-situ source reads inside the mirror's server calls.
    let inproc_idx: BTreeSet<u64> = ops.iter().map(|o| o.inproc as u64).collect();
    let (mut n, mut t, mut bytes) = (0u64, 0.0, 0u64);
    for s in spans
        .iter()
        .filter(|s| s.name == "store.source_read" && inproc_idx.contains(&s.parent))
    {
        n += 1;
        t += s.dur() as f64 / 1e3;
        bytes += s.bytes;
    }
    let fetched = direct.len().max(1) as f64;
    r.metric("store.source_read_us_per_block", t / fetched, "us");
    r.metric("store.source_reads_per_block", n as f64 / fetched, "count");
    r.metric("store.source_bytes_per_block", bytes as f64 / fetched, "B");
    r.detail("traced_ops", ops.len());
    r.detail("traced_blocks_fetched", direct.len());
}
