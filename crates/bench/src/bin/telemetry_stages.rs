//! Stage-level compression profile via the telemetry subsystem, plus the
//! disabled-recorder overhead check, emitted as `BENCH_telemetry.json`.
//!
//! Three measurements:
//!
//! 1. **Enabled**: compress a `(dd|dd)` benzene dataset with the global
//!    recorder on and aggregate the captured spans per stage (pattern
//!    selection, quantization, ECQ encode, container assembly). This is
//!    the per-stage timing the perf trajectory tracks.
//! 2. **Enabled-path costs**: one span recorded under an installed
//!    trace context, and one journal event once the bounded ring is
//!    saturated and drop-counting (ring + drops must account for every
//!    event).
//! 3. **Disabled**: microbenchmark what one instrumentation call costs
//!    when the recorder is off (~one relaxed atomic load), counter and
//!    journal touch points alike, then bound the whole-pipeline overhead
//!    as `calls-per-block × ns-per-call / block-compress-ns`. CI asserts
//!    this stays under 2 % — the "free when off" contract.
//!
//! `PASTRI_BENCH_SCALE` scales the dataset like the other benches.

use std::time::Instant;

use bench::{geometry_of, print_header, print_row, standard_dataset};
use pastri::Compressor;
use qchem::basis::BfConfig;

/// Instrumentation touch points per compressed block: the
/// `compress.block` span plus the three stage spans (each guard checks
/// the enabled flag twice — open and close) and slack for counters,
/// plus a journal call and the slow-request clock check on serving
/// paths.
const CALLS_PER_BLOCK: f64 = 14.0;

/// The stage spans the compressor emits, in pipeline order.
const STAGES: [&str; 6] = [
    "compress.container",
    "compress.block",
    "compress.pattern_select",
    "compress.quantize",
    "compress.ecq_encode",
    "container.assemble",
];

fn main() {
    let eb = 1e-10;
    let config = BfConfig::dd_dd();
    let ds = standard_dataset("benzene", config);
    let geom = geometry_of(config);
    let compressor = Compressor::new(geom, eb);
    let blocks = ds.values.len() / geom.block_size();
    println!(
        "telemetry stage profile — {} (dd|dd), {} blocks, EB {eb:.0e}\n",
        ds.label, blocks
    );

    // Warm up (page in the dataset, settle the allocator).
    let baseline = compressor.compress(&ds.values);

    // ---- Enabled run: capture per-stage spans. ----
    telemetry::reset();
    telemetry::set_enabled(true);
    let t = Instant::now();
    let with_telemetry = compressor.compress(&ds.values);
    let enabled_ns = t.elapsed().as_nanos() as f64;
    telemetry::set_enabled(false);
    let snap = telemetry::snapshot();
    assert_eq!(
        with_telemetry, baseline,
        "telemetry must never change the compressed bytes"
    );

    let container_ns: u64 = snap
        .spans_named("compress.container")
        .map(|s| s.dur_ns)
        .sum();
    let widths = [26usize, 10, 14, 10];
    print_header(&["stage", "spans", "total ms", "% cont."], &widths);
    let mut stage_json = Vec::new();
    for name in STAGES {
        let (mut count, mut total_ns) = (0u64, 0u64);
        for s in snap.spans_named(name) {
            count += 1;
            total_ns += s.dur_ns;
        }
        let pct = if container_ns == 0 {
            0.0
        } else {
            total_ns as f64 / container_ns as f64 * 100.0
        };
        print_row(
            &[
                name.to_string(),
                count.to_string(),
                format!("{:.3}", total_ns as f64 / 1e6),
                format!("{pct:.1}"),
            ],
            &widths,
        );
        stage_json.push(format!(
            "    {{ \"name\": \"{name}\", \"spans\": {count}, \"total_us\": {}, \"pct_of_container\": {pct:.2} }}",
            total_ns / 1000
        ));
    }
    if snap.spans_dropped > 0 {
        println!("  note: {} spans dropped at the buffer cap", snap.spans_dropped);
    }

    // ---- Enabled-path costs: traced span, saturated journal. ----
    const SPAN_REPS: u64 = 100_000;
    telemetry::reset();
    telemetry::set_enabled(true);
    let guard = telemetry::push_trace(telemetry::trace_ids(1, 0));
    let t = Instant::now();
    for _ in 0..SPAN_REPS {
        let _s = telemetry::span("bench.traced");
        std::hint::black_box(());
    }
    let span_traced_ns = t.elapsed().as_nanos() as f64 / SPAN_REPS as f64;
    drop(guard);
    const JOURNAL_REPS: u64 = 50_000;
    telemetry::reset();
    let t = Instant::now();
    for i in 0..JOURNAL_REPS {
        telemetry::journal("bench.journal", i, 0);
    }
    let journal_ns = t.elapsed().as_nanos() as f64 / JOURNAL_REPS as f64;
    let jsnap = telemetry::snapshot();
    telemetry::set_enabled(false);
    let journal_drops: u64 = jsnap.events_dropped.iter().map(|c| c.value).sum();
    assert_eq!(
        jsnap.events.len() as u64 + journal_drops,
        JOURNAL_REPS,
        "journal ring + drop counters must account for every event"
    );
    println!(
        "\nenabled: traced span {span_traced_ns:.1} ns; journal {journal_ns:.1} ns/event \
         saturated ({} retained, {journal_drops} dropped)",
        jsnap.events.len()
    );

    // ---- Disabled run: timing baseline per block. ----
    let t = Instant::now();
    let disabled_out = compressor.compress(&ds.values);
    let disabled_ns = t.elapsed().as_nanos() as f64;
    assert_eq!(disabled_out, baseline, "disabled-path output must be byte-identical");
    let block_ns = disabled_ns / blocks.max(1) as f64;

    // ---- Microbench: one disabled instrumentation call. ----
    const REPS: u64 = 2_000_000;
    assert!(!telemetry::is_enabled());
    let t = Instant::now();
    for i in 0..REPS {
        telemetry::counter_add("bench.noop", 1);
        telemetry::journal("bench.noop", i, 0);
        std::hint::black_box(());
    }
    // Two disabled calls per rep; ns_per_call is the per-touch-point cost.
    let ns_per_call = t.elapsed().as_nanos() as f64 / (2 * REPS) as f64;

    let overhead_pct = CALLS_PER_BLOCK * ns_per_call / block_ns * 100.0;
    println!(
        "\ndisabled recorder: {ns_per_call:.2} ns/call, {CALLS_PER_BLOCK} calls/block, \
         {block_ns:.0} ns/block -> {overhead_pct:.3}% overhead"
    );
    println!(
        "enabled run: {:.1} ms vs disabled {:.1} ms",
        enabled_ns / 1e6,
        disabled_ns / 1e6
    );
    assert!(
        overhead_pct < 2.0,
        "disabled-recorder overhead {overhead_pct:.3}% exceeds the 2% budget"
    );

    let json = format!(
        "{{\n  \"bench\": \"telemetry_stages\",\n  \"dataset\": \"{}\",\n  \
         \"error_bound\": {eb:e},\n  \"blocks\": {blocks},\n  \"stages\": [\n{}\n  ],\n  \
         \"container_total_us\": {},\n  \"span_traced_ns\": {span_traced_ns:.1},\n  \
         \"journal_ns_per_event\": {journal_ns:.1},\n  \"journal_drops\": {journal_drops},\n  \
         \"disabled_ns_per_call\": {ns_per_call:.3},\n  \
         \"calls_per_block\": {CALLS_PER_BLOCK},\n  \"block_compress_ns\": {block_ns:.0},\n  \
         \"disabled_overhead_pct\": {overhead_pct:.4},\n  \"overhead_budget_pct\": 2.0\n}}\n",
        ds.label,
        stage_json.join(",\n"),
        container_ns / 1000,
    );
    std::fs::write("BENCH_telemetry.json", &json).expect("writing BENCH_telemetry.json");
    println!("wrote BENCH_telemetry.json");
}
