//! In-process workload: a `PipelinedEngine` with a WAL on defaults.
//!
//! Thread A owns the engine and its `IngestHandle`: it submits frames and
//! closes the epoch every fixed number of ratings (the quiesce contract
//! makes the submitting thread the one that closes). Thread B holds a
//! `ViewReader`: it records when each close's view becomes visible and
//! which planted pairs it reports, and times `Query`-path reads.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use collusion_core::durability::{DurabilityConfig, DurableEngine, EngineSetup};
use collusion_core::epoch::{CloseTimings, EpochMethod};
use collusion_core::pipeline::{IngestHandle, PipelineConfig, PipelinedEngine, ViewReader};
use collusion_core::policy::DetectionPolicy;
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::Rating;
use collusion_reputation::thresholds::Thresholds;
use collusion_reputation::view::SnapshotView;

use crate::gen::{paced_counts, queries, Phase, Population, Source};
use crate::layers;
use crate::out::{peak_rss_mb, Metrics, Obj};
use crate::spans::{Span, Spans};
use crate::stats::{median, median_split, Summary};
use crate::Outcome;
use crate::P99_CHUNKS;

/// The in-process workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Node population.
    pub nodes: u64,
    /// Background ratings ingested during set-up.
    pub preload: u64,
    /// Ratings between epoch closes (all phases).
    pub close_every: u64,
    /// Background ratings of the saturation phase.
    pub sat_ratings: u64,
    /// Planted blocks of the saturation phase.
    pub sat_blocks: u32,
    /// Offered rate of the paced phase, ratings/s.
    pub paced_rate: f64,
    /// Planted blocks per second of the paced phase.
    pub paced_blocks_per_s: f64,
    /// View reads per second of the paced phase.
    pub queries_per_s: f64,
    /// Repetitions of set-up and of restart (each reports its median).
    pub reps: usize,
}

impl Spec {
    fn setup(&self) -> EngineSetup {
        EngineSetup {
            target_shards: (self.nodes as usize / 1024).clamp(2, 64),
            method: EpochMethod::Optimized,
            thresholds: Thresholds::new(1.0, 20, 0.8, 0.2),
            policy: DetectionPolicy::STRICT,
            prune: true,
            close_threads: 0,
        }
    }

    /// Paced-phase counts for a run of `seconds`.
    pub fn paced_counts(&self, seconds: u64) -> (u64, u32, usize) {
        paced_counts(self.paced_rate, self.paced_blocks_per_s, self.queries_per_s, seconds)
    }
}

/// Thread A's side of the engine: submits frames, closes on the fixed
/// rating cadence, remembers where each close fell.
struct Feeder {
    engine: PipelinedEngine,
    handle: IngestHandle,
    close_every: u64,
    fed: u64,
    /// Rating count at each close, for the serial reference.
    boundaries: Vec<u64>,
    /// Time of each `close_epoch` call, ns (index = epoch − 1).
    close_at: Vec<u64>,
}

impl Feeder {
    /// Submit one frame as a burst; close if a boundary was crossed.
    /// Returns the epoch the frame belongs to.
    fn frame(&mut self, ratings: &[Rating], flush: bool, now_ns: impl Fn() -> u64) -> u64 {
        let epoch = self.engine.epochs_closed() + 1;
        for r in ratings {
            self.handle.submit(*r);
        }
        if flush {
            self.handle.flush();
        }
        self.fed += ratings.len() as u64;
        if self.fed / self.close_every > self.boundaries.len() as u64 {
            self.close(now_ns());
        }
        epoch
    }

    fn close(&mut self, now_ns: u64) -> u64 {
        self.handle.flush();
        self.boundaries.push(self.fed);
        self.close_at.push(now_ns);
        self.engine.close_epoch()
    }
}

/// Run-wide state shared with the observer thread.
struct Shared {
    origin: Instant,
    pop: Population,
    /// First time each planted pair was seen in a published view, ns.
    observed: Vec<AtomicU64>,
    /// First time each epoch's view (index = epoch − 1) was seen, ns.
    visible: Vec<AtomicU64>,
    /// Thread A finished; `last_epoch` holds its final close.
    done: AtomicBool,
    last_epoch: AtomicU64,
}

impl Shared {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a newly published view; returns its epoch.
    fn observe(&self, reader: &mut ViewReader, seen: &mut u64) -> u64 {
        let now = self.ns(Instant::now());
        let view = reader.get();
        if view.epoch > *seen {
            for e in *seen..view.epoch.min(self.visible.len() as u64) {
                self.visible[e as usize].fetch_min(now, Ordering::Relaxed);
            }
            *seen = view.epoch;
            for p in &view.report.pairs {
                if let Some(k) = self.pop.pair_index(p.low, p.high) {
                    self.observed[k].fetch_min(now, Ordering::Relaxed);
                }
            }
        }
        *seen
    }
}

/// Thread B: watch views until thread A's last close is visible, timing
/// the paced phase's reads on their schedule.
fn observer(sh: &Shared, mut reader: ViewReader, qs: &[(u64, NodeId)], t0: Instant) -> Vec<f64> {
    let mut seen = reader.get().epoch;
    let mut qi = 0;
    let mut query_us = Vec::with_capacity(qs.len());
    loop {
        let epoch = sh.observe(&mut reader, &mut seen);
        let now = Instant::now();
        if qi < qs.len() && now >= t0 + Duration::from_nanos(qs[qi].0) {
            let s = Instant::now();
            let known = reader.get().reputation(qs[qi].1).is_some();
            let e = Instant::now();
            std::hint::black_box(known);
            query_us.push((e - s).as_secs_f64() * 1e6);
            qi += 1;
            continue;
        }
        if sh.done.load(Ordering::Acquire)
            && qi == qs.len()
            && epoch >= sh.last_epoch.load(Ordering::Acquire)
        {
            return query_us;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// Fresh engine over `dir`, preloaded; returns it once the last preload
/// close is visible, with the set-up time.
fn set_up(
    spec: &Spec,
    dir: &Path,
    nodes: &[NodeId],
    preload: &Phase,
) -> Result<(Feeder, f64), String> {
    let t0 = Instant::now();
    let engine = PipelinedEngine::with_wal(dir, nodes, PipelineConfig::new(spec.setup()))
        .map_err(|e| format!("engine: {e}"))?;
    let handle = engine.handle();
    let mut f = Feeder {
        engine,
        handle,
        close_every: spec.close_every,
        fed: 0,
        boundaries: Vec::new(),
        close_at: Vec::new(),
    };
    for i in 0..preload.frames.len() {
        f.frame(preload.frame(i), false, || 0);
    }
    let last = f.close(0);
    f.engine.wait_epoch(last);
    Ok((f, t0.elapsed().as_secs_f64()))
}

/// Run the in-process workload.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    let origin = Instant::now();
    let (paced_ratings, paced_blocks, query_count) = spec.paced_counts(seconds);
    let pop = Population { nodes: spec.nodes, pairs: (spec.sat_blocks + paced_blocks) as u64 };
    let nodes = pop.node_ids();
    let mut src = Source::new(pop, seed);
    let preload = Phase::build(&mut src, spec.preload, 0, None);
    let sat = Phase::build(&mut src, spec.sat_ratings, spec.sat_blocks, None);
    let paced = Phase::build(&mut src, paced_ratings, paced_blocks, Some(spec.paced_rate));
    let qs = queries(&pop, seed, query_count, paced.span_ns());
    let edir = dir.join("engine");

    // set-up, repeated: each a fresh engine on a truncated WAL
    let mut setup_s = Vec::new();
    let mut feeder = None;
    for _ in 0..spec.reps.max(1) {
        if let Some(old) = feeder.take() {
            let Feeder { engine, handle, .. } = old;
            drop(handle);
            drop(engine.finish());
        }
        let (f, s) = set_up(spec, &edir, &nodes, &preload)?;
        setup_s.push(s);
        feeder = Some(f);
    }
    let mut f = feeder.expect("at least one set-up repetition");

    let total_epochs = 1
        + (spec.preload + sat.ratings.len() as u64 + paced.ratings.len() as u64) / spec.close_every
        + 2;
    let sh = Shared {
        origin,
        pop,
        observed: (0..pop.pairs).map(|_| AtomicU64::new(u64::MAX)).collect(),
        visible: (0..total_epochs).map(|_| AtomicU64::new(u64::MAX)).collect(),
        done: AtomicBool::new(false),
        last_epoch: AtomicU64::new(0),
    };
    let mut spans = Spans::new(trace, origin);

    // saturation: closed loop, timed from the first submit until the last
    // close is reported
    let mut submit_ns = 0u128;
    let start = Instant::now();
    for i in 0..sat.frames.len() {
        let s = Instant::now();
        f.frame(sat.frame(i), false, || sh.ns(Instant::now()));
        let e = Instant::now();
        submit_ns += (e - s).as_nanos();
        spans.record("core.pipeline.submit", s, e, None, i as u64);
    }
    let last = f.close(sh.ns(Instant::now()));
    let s = Instant::now();
    f.engine.wait_epoch(last);
    let e = Instant::now();
    spans.record("core.pipeline.wait_epoch", s, e, None, last);
    let sat_rps = sat.ratings.len() as f64 / (e - start).as_secs_f64();

    // paced: open loop, each frame a flushed burst at its due time
    let t0 = Instant::now();
    let mut frames_epoch = Vec::with_capacity(paced.frames.len());
    let mut submitted_at = Vec::with_capacity(paced.frames.len());
    let query_us = std::thread::scope(|s| {
        let reader = f.engine.reader();
        let (sh, qs) = (&sh, &qs);
        let b = s.spawn(move || observer(sh, reader, qs, t0));
        for (i, fr) in paced.frames.iter().enumerate() {
            let due = t0 + Duration::from_nanos(fr.due_ns);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep((due - now).min(Duration::from_millis(1)));
            }
            let s = Instant::now();
            let epoch = f.frame(paced.frame(i), true, || sh.ns(Instant::now()));
            let e = Instant::now();
            submitted_at.push(sh.ns(s));
            frames_epoch.push(epoch);
            spans.record("core.pipeline.submit", s, e, None, (sat.frames.len() + i) as u64);
        }
        let last = f.close(sh.ns(Instant::now()));
        f.engine.wait_epoch(last);
        sh.last_epoch.store(last, Ordering::Release);
        sh.done.store(true, Ordering::Release);
        b.join().expect("observer thread")
    });

    // the load phases' memory high-water; the restart's replay buffers are
    // not part of the running engine's footprint
    let peak_rss = peak_rss_mb();

    // restart: drop the engine, recover the directory, same report
    let total = preload.ratings.len() + sat.ratings.len() + paced.ratings.len();
    let mut gate = Vec::new();
    let Feeder { engine, handle, boundaries, close_at, .. } = f;
    drop(handle);
    let mut t_restart = Instant::now();
    let (finished, pstats) = engine.finish();
    let pre_kill = finished.report().pair_ids();
    let fstats = finished.stats();
    let nnz = finished.snapshot().nnz();
    drop(finished);
    if fstats.ratings != total as u64 {
        gate.push(format!("engine folded {} ratings, submitted {total}", fstats.ratings));
    }
    let mut recover_s = Vec::new();
    let mut recover_only = Vec::new();
    let mut replayed = (0, 0);
    for r in 0..spec.reps.max(1) {
        if r > 0 {
            t_restart = Instant::now();
        }
        let t = Instant::now();
        let (eng, rep) =
            DurableEngine::recover(&edir, &nodes, spec.setup(), DurabilityConfig::default())
                .map_err(|e| format!("recover: {e}"))?;
        recover_only.push(t.elapsed().as_secs_f64());
        if eng.report().pair_ids() != pre_kill {
            gate.push("recovered engine's report differs from the pre-kill report".into());
        }
        recover_s.push(t_restart.elapsed().as_secs_f64());
        replayed = (rep.replayed_records, rep.replayed_ratings);
        drop(eng);
    }
    if replayed.1 != total as u64 {
        gate.push(format!("WAL replayed {} ratings, submitted {total}", replayed.1));
    }
    let wal_bytes = std::fs::metadata(edir.join("engine.wal")).map_or(0, |m| m.len());

    // untimed serial reference, closed at the same rating counts
    let stream: [&[Rating]; 3] = [&preload.ratings, &sat.ratings, &paced.ratings];
    let (reference, close_timings) =
        layers::serial_reference(&nodes, spec.setup(), &stream, &boundaries);
    let planted = pop.planted();
    if pre_kill != planted {
        gate.push(format!("engine flagged {} pairs, planted {}", pre_kill.len(), planted.len()));
    }
    if reference.report().pair_ids() != pre_kill {
        gate.push("engine verdicts differ from the serial reference".into());
    }
    drop(reference);

    // end-to-end metrics
    let visible = |e: u64| sh.visible[(e - 1) as usize].load(Ordering::Relaxed);
    let ms = |a: u64, b: u64| {
        if b == u64::MAX {
            f64::INFINITY
        } else {
            b.saturating_sub(a) as f64 / 1e6
        }
    };
    let paced_t0 = sh.ns(t0);
    // ack: per rating, from its arrival until the view of the close that
    // folded it (durable: the WAL stage syncs before the merge) is visible
    let mut ack_rows: Vec<(f64, Vec<f64>)> = Vec::with_capacity(paced.ratings.len());
    let mut late_ms = Vec::with_capacity(paced.frames.len());
    for ((fr, &e), &s) in paced.frames.iter().zip(&frames_epoch).zip(&submitted_at) {
        let frame_due = paced_t0 + fr.due_ns;
        let call = close_at[(e - 1) as usize];
        late_ms.push(ms(frame_due, s));
        for j in fr.start as usize..(fr.start + fr.len) as usize {
            let due = paced_t0 + paced.rating_due_ns(j);
            let parts =
                vec![ms(due, frame_due), ms(frame_due, s), ms(s, call), ms(call, visible(e))];
            ack_rows.push((ms(due, visible(e)), parts));
        }
    }
    let ack_ms: Vec<f64> = ack_rows.iter().map(|r| r.0).collect();
    let ack = Summary::chunked(&ack_ms, P99_CHUNKS);
    let mut verdict_rows = Vec::new();
    for (fr, &e) in paced.frames.iter().zip(&frames_epoch) {
        let Some(k) = fr.pair else { continue };
        let due = paced_t0 + fr.due_ns;
        let seen = sh.observed[k as usize].load(Ordering::Relaxed);
        let call = close_at[(e - 1) as usize];
        let total = ms(due, seen);
        verdict_rows.push((total, vec![ms(due, call), ms(call, seen)]));
        let root = spans.push(Span {
            name: "verdict",
            start: due,
            end: seen.min(u64::MAX - 1),
            parent: None,
            trace: k as u64,
        });
        spans.push(Span {
            name: "verdict.wait_close",
            start: due,
            end: call,
            parent: root,
            trace: k as u64,
        });
        spans.push(Span {
            name: "verdict.close_to_visible",
            start: call,
            end: seen.min(u64::MAX - 1),
            parent: root,
            trace: k as u64,
        });
    }
    let mut verdict_ms: Vec<f64> = verdict_rows.iter().map(|r| r.0).collect();
    let verdict = Summary::of(&mut verdict_ms);
    let query = Summary::chunked(&query_us, P99_CHUNKS);

    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set("ingest_rps", sat_rps, "1/s");
    e2e.set("ack_p50_ms", ack.p50, "ms");
    e2e.set("ack_p99_ms", ack.p99, "ms");
    e2e.set("verdict_p50_ms", verdict.p50, "ms");
    e2e.set("verdict_p99_ms", verdict.p99, "ms");
    e2e.set("query_p50_us", query.p50, "us");
    e2e.set("recover_s", median(&recover_s), "s");
    e2e.set("peak_rss_mb", peak_rss, "MB");

    let closes = close_at.len() as u64;
    let attempted = (sat.frames.len() + paced.frames.len() + query.n) as u64 + closes;

    let mut detail = Obj::default();
    let mut samples = Obj::default();
    samples.raw("ack", crate::out::summary_obj(&ack));
    samples.raw("verdict", crate::out::summary_obj(&verdict));
    samples.raw("query", crate::out::summary_obj(&query));
    samples.raw("setup_s", format!("{setup_s:?}"));
    samples.raw("recover_s", format!("{recover_s:?}"));
    detail.raw("samples", samples.render());
    let mut counts = Obj::default();
    counts
        .num("nodes", spec.nodes as f64)
        .num("preload_ratings", preload.ratings.len() as f64)
        .num("saturation_ratings", sat.ratings.len() as f64)
        .num("saturation_blocks", sat.blocks() as f64)
        .num("paced_ratings", paced.ratings.len() as f64)
        .num("paced_blocks", paced.blocks() as f64)
        .num("paced_rate", spec.paced_rate)
        .num("queries", qs.len() as f64)
        .num("closes", closes as f64)
        .num("close_every", spec.close_every as f64);
    detail.raw("counts", counts.render());

    // per-layer metrics
    let mut lay = Metrics::default();
    let mut late = late_ms.clone();
    let gen_late_p99 = Summary::of(&mut late).p99;
    lay.set("bench.gen_late_p99_ms", gen_late_p99, "ms");
    detail.num("gen_late_p99_ms", gen_late_p99);
    lay.set(
        "core.pipeline.submit_ns_per_rating",
        submit_ns as f64 / sat.ratings.len() as f64,
        "ns",
    );
    lay.set("core.pipeline.read_us_p99", query.p99, "us");
    lay.set("core.pipeline.wal_busy_frac", pstats.wal_occupancy(), "ratio");
    lay.set("core.pipeline.merge_busy_frac", pstats.merge_occupancy(), "ratio");
    lay.set("core.pipeline.detect_busy_frac", pstats.detect_occupancy(), "ratio");
    let paced_first_epoch = frames_epoch.first().copied().unwrap_or(1);
    let lags: Vec<f64> = (paced_first_epoch..=closes)
        .map(|e| ms(close_at[(e - 1) as usize], visible(e)))
        .filter(|v| v.is_finite())
        .collect();
    lay.set("core.pipeline.close_lag_ms_p50", median(&lags), "ms");
    let per_close = |f: fn(&CloseTimings) -> u64| {
        median(&close_timings.iter().map(|t| f(t) as f64 / 1e6).collect::<Vec<_>>())
    };
    lay.set("core.epoch.advance_ms_p50", per_close(|t| t.advance_ns), "ms");
    lay.set("core.epoch.enumerate_ms_p50", per_close(|t| t.enumerate_ns), "ms");
    lay.set("core.epoch.recheck_ms_p50", per_close(|t| t.recheck_ns), "ms");
    lay.set(
        "core.epoch.candidates_per_close",
        fstats.candidates as f64 / fstats.epochs.max(1) as f64,
        "count",
    );
    lay.set("core.epoch.flag_yield", planted.len() as f64 / fstats.checked.max(1) as f64, "ratio");
    lay.set("core.durability.recover_s", median(&recover_only), "s");
    lay.set("core.durability.replayed_records", replayed.0 as f64, "count");
    lay.set("reputation.sharded.nnz", nnz as f64, "count");
    lay.set(
        "reputation.wal.syncs_per_kratings",
        pstats.wal_syncs as f64 * 1000.0 / total as f64,
        "count",
    );
    lay.set("reputation.wal.bytes_per_rating", wal_bytes as f64 / total as f64, "B");

    let mut split = Obj::default();
    if trace {
        let frames: Vec<&[Rating]> = (0..sat.frames.len())
            .map(|i| sat.frame(i))
            .chain((0..paced.frames.len()).map(|i| paced.frame(i)))
            .collect();
        let wdir = dir.join("wal-replay");
        std::fs::create_dir_all(&wdir).map_err(|e| e.to_string())?;
        let (append_ns, sync_us) = layers::wal_replay(&wdir, &frames, 200);
        lay.set("reputation.wal.append_ns_per_rating", append_ns, "ns");
        lay.set("reputation.wal.sync_us_p50", sync_us, "us");

        // verdict split: wait for the close, then close → visible, the
        // latter divided by the pipeline's mean per-close stage times
        let epochs = fstats.epochs.max(1) as f64;
        let stage = |ns: u64| ns as f64 / 1e6 / epochs;
        let (adv, en, rc) = (
            stage(pstats.close_advance_ns),
            stage(pstats.close_enumerate_ns),
            stage(pstats.close_recheck_ns),
        );
        let (band, parts) = median_split(&verdict_rows, 0.45, 0.55);
        let lag = parts[1];
        let other = lag - adv - en - rc;
        let mut v = Obj::default();
        v.num("p50_ms", verdict.p50)
            .num("median_band_ms", band)
            .num("wait_close_ms", parts[0])
            .num("close_to_visible_ms", lag)
            .num("advance_ms", adv)
            .num("enumerate_ms", en)
            .num("recheck_ms", rc)
            .num("wal_queue_publish_observe_ms", other)
            .num("sum_over_p50", (parts[0] + lag) / verdict.p50);
        split.raw("verdict", v.render());
        lay.set("split.verdict.wait_close_ms", parts[0], "ms");
        lay.set("split.verdict.close_ms", lag, "ms");
        lay.set("split.verdict.advance_ms", adv, "ms");
        lay.set("split.verdict.enumerate_ms", en, "ms");
        lay.set("split.verdict.recheck_ms", rc, "ms");
        lay.set("split.verdict.sum_over_p50", (parts[0] + lag) / verdict.p50, "ratio");

        // ack split: batching wait, generator lateness, wait for the close
        // that folds the rating, close → visible
        let (aband, aparts) = median_split(&ack_rows, 0.45, 0.55);
        let names = ["batch_wait", "gen_late", "wait_close", "close"];
        split.raw("ack", crate::out::split_obj(ack.p50, aband, &names, &aparts));
        for (n, v) in names.iter().zip(&aparts) {
            lay.set(&format!("split.ack.{n}_ms"), *v, "ms");
        }
        lay.set("split.ack.sum_over_p50", aparts.iter().sum::<f64>() / ack.p50, "ratio");
        for (m, v, unit) in [
            ("bench.trace.ack_p50_ms", ack.p50, "ms"),
            ("bench.trace.verdict_p50_ms", verdict.p50, "ms"),
            ("bench.trace.ingest_rps", sat_rps, "1/s"),
        ] {
            lay.set(m, v, unit);
        }
    }
    detail.raw("split", split.render());
    Ok(Outcome { e2e, layers: lay, attempted, failed: 0, detail, spans, gate })
}
