//! The offline, paper-faithful path: `QosPipeline::run_online` with FIM
//! block mapping over the Exchange workload model, N fresh passes over the
//! same trace. It shares `decluster` and `flashsim` with the engine but
//! uses them differently, and spends most of its time in `fim`, which no
//! online workload touches.

use crate::catalog::Metrics;
use crate::gen;
use crate::online::Limit;
use crate::report::RunResult;
use crate::run::enough_setups;
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::OfflineSpec;
use flash_qos::decluster::AllocationScheme;
use flash_qos::fim::{match_design_blocks, Apriori, PairMiner, TransactionDb};
use flash_qos::flashsim::{FlashArray, IoOp, IoRequest};
use flash_qos::qos::scheduler::OnlineQos;
use flash_qos::qos::{BlockMapping, MappingStrategy, QosConfig, QosPipeline, QosReport};
use flash_qos::traces::models::exchange;
use flash_qos::traces::models::exchange::ExchangeConfig;
use flash_qos::traces::Trace;
use std::hint::black_box;
use std::time::Instant;

/// Passes a `Limit::Windows` run makes: two, so determinism is checked.
const FIXED_PASSES: usize = 2;

struct Pass {
    seconds: f64,
    report: QosReport,
}

fn generate(spec: &OfflineSpec, seed: u64, limit: Limit) -> Trace {
    let intervals = match limit {
        Limit::Seconds(_) => spec.intervals,
        // A fixed-size run names its length in reporting intervals.
        Limit::Windows(n) => n as usize,
    };
    exchange(ExchangeConfig {
        intervals,
        seed,
        ..ExchangeConfig::default()
    })
    .generate()
}

fn passes(pipeline: &QosPipeline, trace: &Trace, limit: Limit, tracer: &mut Tracer) -> Vec<Pass> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let done = match limit {
            Limit::Seconds(s) => out.len() >= 3 && start.elapsed().as_secs_f64() >= s,
            Limit::Windows(_) => out.len() >= FIXED_PASSES,
        };
        if done {
            return out;
        }
        let t = Instant::now();
        let report = tracer.span("pass", out.len() as u64, |_| pipeline.run_online(trace));
        out.push(Pass {
            seconds: t.elapsed().as_secs_f64(),
            report,
        });
    }
}

/// Records per second of each pass, in order.
fn rates(passes: &[Pass], records: usize) -> Vec<f64> {
    passes.iter().map(|p| records as f64 / p.seconds).collect()
}

pub fn run(
    spec: &OfflineSpec,
    seed: u64,
    limit: Limit,
    tracer: &mut Tracer,
    result: &mut RunResult,
) -> Result<(), String> {
    let config = QosConfig::paper_9_3_1();
    let interval_ns = config.interval_ns;
    result.config = vec![
        ("design", config.scheme.name().to_string()),
        ("accesses", config.accesses.to_string()),
        ("interval_ns", interval_ns.to_string()),
        ("epsilon", config.epsilon.to_string()),
        ("mapping", "fim".to_string()),
        ("model", "exchange".to_string()),
        ("intervals", spec.intervals.to_string()),
        ("limit", format!("{limit:?}")),
    ];

    // Set-up: generate the trace and build the pipeline; repeated, median
    // reported, the last one used.
    let mut setup_s = Vec::new();
    let mut generate_s = Vec::new();
    let setup_clock = Instant::now();
    let (trace, pipeline) = loop {
        let t0 = Instant::now();
        let trace = tracer.span("setup.generate", seed, |_| generate(spec, seed, limit));
        let t1 = Instant::now();
        let pipeline = tracer.span("setup.construct", 0, |_| QosPipeline::new(config.clone()));
        generate_s.push((t1 - t0).as_secs_f64());
        setup_s.push(t0.elapsed().as_secs_f64());
        if enough_setups(setup_s.len(), setup_clock) {
            break (trace, pipeline);
        }
    };
    let records = trace.len();
    if records == 0 {
        return Err("the workload model generated an empty trace".into());
    }
    result.fingerprint = gen::fingerprint(
        trace
            .records
            .iter()
            .map(|r| (r.device as u64, r.lbn, r.arrival_ns, r.op == IoOp::Write)),
    );

    // Traced: half the budget under spans, a quarter without for the
    // overhead figure; the rest goes to the layer replays.
    let main = passes(
        &pipeline,
        &trace,
        if tracer.enabled() {
            limit.scaled(0.5)
        } else {
            limit
        },
        tracer,
    );
    let report = &main[0].report;

    result.attempted = records as u64;
    result.failed = report.rejected;
    let main_rates = rates(&main, records);
    let throughput_rps = sys::median(&mut main_rates.clone());
    result.samples_rps = vec![main_rates.clone()];
    result.checks.eq(
        "offline.completed+rejected==records",
        report.completed() + report.rejected,
        records as u64,
    );
    result.checks.that(
        "offline.passes_agree",
        main.iter().all(|p| {
            p.report.completed() == report.completed()
                && p.report.total_response.mean_ns() == report.total_response.mean_ns()
                && p.report.intervals.delayed == report.intervals.delayed
        }),
        format!("{} passes over one trace", main.len()),
    );

    // Open loop: a delayed request pays for its delay, so the response is
    // counted from arrival — service response plus admission delay.
    let delay_ns: u128 = report.intervals.delay_sum_ns.iter().sum();
    let completed = report.completed().max(1) as f64;
    let mean_ns = report.total_response.mean_ns() + delay_ns as f64 / completed;
    // Deadline = T on response, judged per reporting interval: an interval
    // whose worst response exceeds T counts all its requests as missed.
    let met: u64 = report
        .intervals
        .response
        .iter()
        .zip(&report.intervals.requests)
        .filter(|(r, _)| r.max_ns() <= interval_ns)
        .map(|(_, &n)| n)
        .sum();
    let e2e = &mut result.end_to_end;
    e2e.set("setup_s", sys::median(&mut setup_s));
    e2e.set("throughput_rps", throughput_rps);
    e2e.set("sim_resp_mean_us", mean_ns / 1e3);
    e2e.set("deadline_met_pct", 100.0 * met as f64 / records as f64);
    e2e.set(
        "undelayed_pct",
        100.0 * (report.completed() as f64 * (1.0 - report.delayed_pct() / 100.0)) / records as f64,
    );

    if tracer.enabled() {
        let plain = passes(
            &pipeline,
            &trace,
            limit.scaled(0.25),
            &mut Tracer::new(false, Instant::now(), 0),
        );
        let untraced = sys::median(&mut rates(&plain, records));
        let out = &mut result.per_layer;
        out.set(
            "bench.trace_overhead_pct",
            100.0 * (untraced - throughput_rps) / untraced,
        );
        out.set("bench.segments", main.len() as f64);
        out.set(
            "bench.segment_iqr_pct",
            100.0 * sys::iqr_share(&mut main_rates.clone()),
        );
        out.set("traces.generate_ms", sys::median(&mut generate_s) * 1e3);
        out.set(
            "bench.gen_ns_per_req",
            sys::median(&mut generate_s) * 1e9 / records as f64,
        );
        out.set(
            "sim.resp_max_us",
            report.total_response.max_ns() as f64 / 1e3,
        );
        out.set("sim.delayed_pct", report.delayed_pct());
        out.set(
            "sim.failed_pct",
            100.0 * report.rejected as f64 / records as f64,
        );
        out.set("sim.latency_samples", report.completed() as f64);
        out.set("fim.matched_pct", 100.0 * report.avg_matched_fraction());
        tracer.span("replay", 0, |_| replay(&config, &trace, out));
    }
    Ok(())
}

/// The trace pushed through each offline layer's public functions alone.
fn replay(config: &QosConfig, trace: &Trace, out: &mut Metrics) {
    let buckets = config.scheme.num_buckets();
    let interval_ns = config.interval_ns;
    let records = trace.len().max(1) as f64;
    let intervals = trace.num_intervals().max(1) as f64;

    // fim: mine each reporting interval as the mapping layer would.
    let (mut mine_s, mut pairs) = (0.0f64, 0usize);
    for recs in trace.intervals() {
        let db = TransactionDb::from_timed_events(
            recs.iter().map(|r| (r.arrival_ns, r.lbn)),
            interval_ns,
        );
        let t = Instant::now();
        let found = Apriori.mine_pairs(&db, 1);
        mine_s += t.elapsed().as_secs_f64();
        pairs += found.len();
        black_box(match_design_blocks(&found, buckets));
    }
    out.set("fim.mine_ms_per_interval", mine_s * 1e3 / intervals);
    out.set("fim.pairs_per_interval", pairs as f64 / intervals);

    // core::mapping: advance (transactions + mining + matching) per
    // interval, then look every record of the next interval up.
    let mut mapping = BlockMapping::new(MappingStrategy::Fim, buckets, interval_ns, 1);
    let (mut advance_s, mut lookup_s, mut lookups) = (0.0f64, 0.0f64, 0usize);
    for recs in trace.intervals() {
        let t = Instant::now();
        for r in recs {
            black_box(mapping.bucket_for(r.lbn));
        }
        lookup_s += t.elapsed().as_secs_f64();
        lookups += recs.len();
        let t = Instant::now();
        black_box(mapping.advance_interval(recs));
        advance_s += t.elapsed().as_secs_f64();
    }
    out.set("core.mapping_advance_ms", advance_s * 1e3 / intervals);
    out.set(
        "core.mapping_bucket_for_ns",
        lookup_s * 1e9 / lookups.max(1) as f64,
    );

    // core::scheduler without FIM: the same trace under modulo mapping.
    let mut modulo = BlockMapping::new(MappingStrategy::Modulo, buckets, interval_ns, 1);
    let scheduler = OnlineQos::new(config.clone());
    let t = Instant::now();
    black_box(scheduler.run(trace, &mut modulo));
    out.set(
        "core.online_run_ns_per_req",
        t.elapsed().as_nanos() as f64 / records,
    );

    // flashsim::FlashArray: every record on its bucket's first replica.
    let mut array = FlashArray::calibrated(config.devices());
    let t = Instant::now();
    for (i, r) in trace.records.iter().enumerate() {
        let d = config.scheme.replicas(config.scheme.bucket_for_lbn(r.lbn))[0];
        black_box(array.submit(
            &IoRequest::read_block(i as u64, r.arrival_ns, d, r.lbn),
            r.arrival_ns,
        ));
    }
    out.set(
        "flashsim.array_ns_per_req",
        t.elapsed().as_nanos() as f64 / records,
    );
}
