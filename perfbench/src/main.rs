//! Rating → ack → verdict benchmark of the collusion-detection system, over
//! TCP (`ManagerNode`, `RpcClient`, `InsertStream`) and in-process
//! (`PipelinedEngine`, `IngestHandle`, `ViewReader`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tcp_ingest|inproc_close> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Every phase is a fixed amount of work made from `--seed`: a saturation
//! phase (a fixed rating count, closed loop), a paced phase (open loop at a
//! fixed offered rate for `--seconds`, every operation timed from its due
//! time) and a restart. Each run checks its outputs: the final suspect set
//! must equal the planted pairs and an untimed serial `EpochEngine`
//! reference fed the same stream, every rating sent must be recorded once,
//! and the restarted system must report what it reported before the kill.
//! A run that fails a check prints no metrics and exits non-zero.
//!
//! With `--trace 0` the last stdout line holds the end-to-end metrics; with
//! `--trace 1` it holds the per-layer metrics, from spans around each call
//! into a layer and from layer replays on the run's own inputs, and the
//! spans are written to `.bench_data/spans/`. The line before the result
//! carries the machine fingerprint, sample counts and the latency splits.

mod gen;
mod inproc;
mod layers;
mod out;
mod spans;
mod stats;
mod tcp;

use std::path::{Path, PathBuf};

use out::{fingerprint, result_line, Metrics, Obj};
use spans::Spans;

/// Chunks of a paced phase's ack and query samples, in time order, whose
/// p99s are reported by their median (see `stats::Summary::chunked`).
pub const P99_CHUNKS: usize = 10;

/// Everything one workload run produced.
pub struct Outcome {
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Per-layer metrics.
    pub layers: Metrics,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Sample counts, work counts and latency splits.
    pub detail: Obj,
    /// Recorded spans (empty when tracing is off).
    pub spans: Spans,
    /// Correctness violations; any fails the run.
    pub gate: Vec<String>,
}

/// Every per-layer metric and its unit. A traced run prints all of them; a
/// layer its workload does not exercise reads 0. The `split.*` metrics are
/// the parts of the median operation (they add up to the end-to-end median;
/// the detail line gives the sum as a share of it).
const LAYER_METRICS: &[(&str, &str)] = &[
    ("net.client.send_us_p50", "us"),
    ("net.client.ack_wait_ms_p50", "ms"),
    ("net.client.query_us_p99", "us"),
    ("net.client.bytes_per_rating", "B"),
    ("net.wire.encode_ns_per_rating", "ns"),
    ("net.wire.decode_ns_per_rating", "ns"),
    ("net.server.close_rpc_ms_p50", "ms"),
    ("net.server.close_rpc_ms_max", "ms"),
    ("net.server.views_per_kratings", "count"),
    ("net.server.intake_pending_max", "count"),
    ("net.server.wal_backlog_bytes_max", "B"),
    ("net.server.throttled_frames", "count"),
    ("net.server.refused_frames", "count"),
    ("net.server.spawn_s", "s"),
    ("net.server.history_rebuild_s", "s"),
    ("reputation.snapshot.build_ms", "ms"),
    ("reputation.wal.append_ns_per_rating", "ns"),
    ("reputation.wal.sync_us_p50", "us"),
    ("reputation.wal.syncs_per_kratings", "count"),
    ("reputation.wal.bytes_per_rating", "B"),
    ("core.pipeline.submit_ns_per_rating", "ns"),
    ("core.pipeline.read_us_p99", "us"),
    ("core.pipeline.wal_busy_frac", "ratio"),
    ("core.pipeline.merge_busy_frac", "ratio"),
    ("core.pipeline.detect_busy_frac", "ratio"),
    ("core.pipeline.close_lag_ms_p50", "ms"),
    ("core.epoch.advance_ms_p50", "ms"),
    ("core.epoch.enumerate_ms_p50", "ms"),
    ("core.epoch.recheck_ms_p50", "ms"),
    ("core.epoch.candidates_per_close", "count"),
    ("core.epoch.flag_yield", "ratio"),
    ("core.durability.recover_s", "s"),
    ("core.durability.replayed_records", "count"),
    ("reputation.sharded.nnz", "count"),
    ("bench.gen_late_p99_ms", "ms"),
    ("split.ack.batch_wait_ms", "ms"),
    ("split.ack.gen_late_ms", "ms"),
    ("split.ack.send_stage_ms", "ms"),
    ("split.ack.ack_wait_ms", "ms"),
    ("split.ack.wait_close_ms", "ms"),
    ("split.ack.close_ms", "ms"),
    ("split.verdict.wait_close_ms", "ms"),
    ("split.verdict.close_ms", "ms"),
    ("split.verdict.observe_ms", "ms"),
    ("split.verdict.advance_ms", "ms"),
    ("split.verdict.enumerate_ms", "ms"),
    ("split.verdict.recheck_ms", "ms"),
    ("bench.trace.ack_p50_ms", "ms"),
    ("bench.trace.verdict_p50_ms", "ms"),
    ("bench.trace.ingest_rps", "1/s"),
];

/// End-to-end metrics every workload reports with `--trace 0`.
#[cfg(test)]
const E2E_METRICS: &[&str] = &[
    "setup_s",
    "ingest_rps",
    "ack_p50_ms",
    "ack_p99_ms",
    "verdict_p50_ms",
    "verdict_p99_ms",
    "query_p50_us",
    "recover_s",
    "peak_rss_mb",
];

/// The workloads.
enum Workload {
    Tcp(tcp::Spec),
    InProc(inproc::Spec),
}

/// The workloads, by name. Offered rates leave headroom below each
/// workload's saturation rate on a 2-core machine, so the paced phases
/// measure latency rather than a growing backlog.
fn workload(name: &str) -> Option<Workload> {
    match name {
        // The network data plane, the WAL group commit and the server's
        // per-1024-rating view rebuild do most of the work; closes are a
        // small share.
        "tcp_ingest" => Some(Workload::Tcp(tcp::Spec {
            nodes: 20_000,
            preload: 200_000,
            preload_closes: 10,
            sat_ratings: 50_000,
            sat_blocks: 40,
            paced_rate: 3_000.0,
            paced_blocks_per_s: 10.0,
            close_ms: 500,
            queries_per_s: 2_000.0,
            query_burst: 200,
            reps: 9,
        })),
        // Close stages and the sharded merge dominate: no network and no
        // view rebuild, so a network change must show no effect here.
        "inproc_close" => Some(Workload::InProc(inproc::Spec {
            nodes: 100_000,
            preload: 1_000_000,
            close_every: 25_000,
            sat_ratings: 400_000,
            sat_blocks: 100,
            paced_rate: 60_000.0,
            paced_blocks_per_s: 20.0,
            queries_per_s: 2_000.0,
            reps: 3,
        })),
        _ => None,
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad --seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    let root = PathBuf::from(".bench_data");
    let dir = root.join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: data dir {}: {e}", dir.display());
        std::process::exit(1);
    }
    let fp = fingerprint(&dir);
    let result = match w {
        Workload::Tcp(spec) => tcp::run(&spec, args.seed, args.seconds, args.trace, &dir),
        Workload::InProc(spec) => inproc::run(&spec, args.seed, args.seconds, args.trace, &dir),
    };
    std::fs::remove_dir_all(&dir).ok();
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if let Err(e) = report(&args, &root, fp, outcome) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn report(args: &Args, root: &Path, fp: Obj, o: Outcome) -> Result<(), String> {
    let mut detail = Obj::default();
    detail
        .text("workload", &args.workload)
        .num("seed", args.seed as f64)
        .num("seconds", args.seconds as f64)
        .raw("trace", args.trace.to_string())
        .raw("fingerprint", fp.render())
        .raw("run", o.detail.render());
    if !o.gate.is_empty() {
        let list: Vec<String> = o.gate.iter().map(|g| out::text(g)).collect();
        detail.raw("violations", format!("[{}]", list.join(", ")));
        println!("detail: {}", detail.render());
        println!("{}", result_line(false, o.attempted, o.failed, &Metrics::default()));
        return Err(format!("correctness check failed: {}", o.gate.join("; ")));
    }
    let metrics = if args.trace {
        let dir = root.join("spans");
        std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        o.spans.write_jsonl(&path).map_err(|e| format!("write spans: {e}"))?;
        let mut self_ms = Obj::default();
        for (name, ns) in o.spans.self_time_by_name() {
            self_ms.num(name, ns as f64 / 1e6);
        }
        detail.raw("span_self_ms", self_ms.render());
        detail.text("spans_file", &path.to_string_lossy());
        let mut m = Metrics::default();
        for &(name, unit) in LAYER_METRICS {
            m.set(name, o.layers.get(name).unwrap_or(0.0), unit);
        }
        m
    } else {
        o.e2e
    };
    println!("detail: {}", detail.render());
    println!("{}", result_line(true, o.attempted, o.failed, &metrics));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's manifest declares exactly the metrics a run prints.
    #[test]
    fn benchmark_json_names_every_metric() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = json.matches("\"name\": ").count();
        for name in E2E_METRICS.iter().chain(LAYER_METRICS.iter().map(|(n, _)| n)) {
            assert!(json.contains(&format!("\"name\": \"{name}\"")), "{name} not declared");
        }
        for w in ["tcp_ingest", "inproc_close"] {
            assert!(workload(w).is_some());
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w} not declared");
        }
        assert_eq!(declared, E2E_METRICS.len() + LAYER_METRICS.len() + 2);
    }
}
