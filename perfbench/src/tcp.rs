//! The TCP workload: one `ManagerNode` on loopback, driven by two threads
//! over two connections.
//!
//! * Thread A streams frames over one `InsertStream` and polls the
//!   published view through `ManagerNode::view_reader`.
//! * Thread B owns the control connection: `CloseEpoch` on a fixed
//!   schedule, `Status` before each close, and `Query` calls.
//!
//! The manager's history is preloaded by an untimed prelude that writes its
//! WAL through `DurableEngine`; the manager rejoins from it at set-up.

use std::io::ErrorKind;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use collusion_core::decentralized::Method;
use collusion_core::durability::{DurabilityConfig, DurableEngine, EngineSetup};
use collusion_core::epoch::{CloseTimings, EpochMethod};
use collusion_core::net::wire::{Request, Response};
use collusion_core::net::{
    Backpressure, ManagerConfig, ManagerNode, RpcClient, RpcConfig, RpcError,
};
use collusion_core::pipeline::ViewReader;
use collusion_core::policy::DetectionPolicy;
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::Rating;
use collusion_reputation::thresholds::Thresholds;
use collusion_reputation::view::SnapshotView;
use collusion_reputation::wal::SyncPolicy;

use crate::gen::{paced_counts, queries, Phase, Population, Source, FRAME_RATINGS};
use crate::layers;
use crate::out::{peak_rss_mb, split_obj, summary_obj, Metrics, Obj};
use crate::spans::{Span, Spans};
use crate::stats::{median, median_split, Summary};
use crate::Outcome;
use crate::P99_CHUNKS;

/// Window of the saturation stream (un-acked frames in flight).
const SAT_WINDOW: usize = 64;
/// Window of the paced stream: the client reads acks only when its window
/// is full, so the open-loop sender uses window 1 to read each frame's ack
/// the moment it arrives.
const PACED_WINDOW: usize = 1;
/// Group-commit policy of the cluster's managers (1 MiB / 20 ms).
const MANAGER_SYNC: SyncPolicy = SyncPolicy::Async { max_bytes: 1 << 20, max_delay_micros: 20_000 };
/// Longest wait for a restarted manager to answer with the pre-kill report.
const RESTART_PATIENCE: Duration = Duration::from_secs(60);

/// The TCP workload's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Node population.
    pub nodes: u64,
    /// Background ratings of the untimed prelude.
    pub preload: u64,
    /// Epoch closes during the prelude.
    pub preload_closes: u64,
    /// Background ratings of the saturation phase.
    pub sat_ratings: u64,
    /// Planted blocks of the saturation phase.
    pub sat_blocks: u32,
    /// Offered rate of the paced phase, ratings/s.
    pub paced_rate: f64,
    /// Planted blocks per second of the paced phase.
    pub paced_blocks_per_s: f64,
    /// Close cadence of the paced phase, ms.
    pub close_ms: u64,
    /// Queries per second of the paced phase.
    pub queries_per_s: f64,
    /// Queries issued back to back at each due instant (1 = open loop;
    /// more = closed-loop bursts spread over the phase).
    pub query_burst: usize,
    /// Repetitions of set-up and of restart (each reports its median).
    pub reps: usize,
}

impl Spec {
    fn thresholds() -> Thresholds {
        Thresholds::new(1.0, 20, 0.8, 0.2)
    }

    /// The detection set-up a manager runs with.
    fn setup() -> EngineSetup {
        EngineSetup {
            target_shards: 4,
            method: EpochMethod::Optimized,
            thresholds: Self::thresholds(),
            policy: DetectionPolicy::STRICT,
            prune: false,
            close_threads: 0,
        }
    }

    fn durability() -> DurabilityConfig {
        DurabilityConfig { sync_policy: MANAGER_SYNC, ..DurabilityConfig::default() }
    }

    fn manager(dir: &Path, nodes: &[NodeId]) -> ManagerConfig {
        ManagerConfig {
            id: NodeId(1),
            dir: dir.to_path_buf(),
            nodes: nodes.to_vec(),
            managers: vec![NodeId(1)],
            replication: 1,
            thresholds: Self::thresholds(),
            method: Method::Optimized,
            policy: DetectionPolicy::STRICT,
            shards: 4,
            durability: Self::durability(),
            rpc: RpcConfig::lan(),
            backpressure: Backpressure::default(),
        }
    }

    /// Paced-phase counts for a run of `seconds`.
    pub fn paced_counts(&self, seconds: u64) -> (u64, u32, usize) {
        paced_counts(self.paced_rate, self.paced_blocks_per_s, self.queries_per_s, seconds)
    }
}

/// A control client that never retries and waits long: a retried
/// `CloseEpoch` would close twice, and a close can take a while.
fn patient() -> RpcConfig {
    RpcConfig {
        attempt_timeout_ms: 30_000,
        total_deadline_ms: 60_000,
        max_retries: 0,
        ..RpcConfig::lan()
    }
}

/// One `CloseEpoch` as seen by thread B.
#[derive(Clone, Copy, Debug)]
struct Close {
    start: u64,
    end: u64,
    /// Ratings sent (all phases, prelude included) when the close began.
    sent: u64,
}

/// Run-wide state the two threads share.
struct Shared {
    origin: Instant,
    pop: Population,
    addr: std::net::SocketAddr,
    /// Ratings handed to the stream so far, prelude included.
    sent: AtomicU64,
    /// Thread A finished its phase.
    done: AtomicBool,
    /// First time each planted pair was seen in a published view, ns.
    observed: Vec<AtomicU64>,
}

impl Shared {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record every planted pair of the current view not seen before.
    fn observe(&self, reader: &mut ViewReader, last: &mut u64) {
        let now = self.ns(Instant::now());
        let view = reader.get();
        if view.epoch == *last {
            return;
        }
        *last = view.epoch;
        for p in &view.report.pairs {
            if let Some(k) = self.pop.pair_index(p.low, p.high) {
                self.observed[k].fetch_min(now, Ordering::Relaxed);
            }
        }
    }
}

/// What thread A measured in one phase.
#[derive(Default)]
struct StreamSide {
    ratings: u64,
    /// Saturation: ratings acked per second.
    rps: f64,
    /// Non-blocking `send` calls, µs.
    send_us: Vec<f64>,
    /// `send` calls that blocked on an ack, ms.
    ack_wait_ms: Vec<f64>,
    /// Paced frames: (send start, ack read) in ns from the clock origin;
    /// `None` when the frame failed.
    acked: Vec<Option<(u64, u64)>>,
    frames: u64,
    failed: u64,
    failures: Failures,
    bytes: u64,
}

/// What thread B measured in one phase.
#[derive(Default)]
struct ControlSide {
    closes: Vec<Close>,
    query_us: Vec<f64>,
    intake_max: u64,
    backlog_max: u64,
    attempted: u64,
    failed: u64,
    failures: Failures,
}

/// Failed operations by kind. A frame that fails poisons its session, so
/// it and every later frame of the phase count as failed.
#[derive(Clone, Copy, Debug, Default)]
struct Failures {
    /// Frames refused with `Overloaded`.
    overloaded: u64,
    /// Frames answered with `StreamNack`.
    nack: u64,
    /// Frames whose ack missed the RPC deadline.
    deadline: u64,
    /// Frames lost to any other transport or protocol error.
    transport: u64,
    /// `Query` calls that failed.
    query: u64,
    /// `CloseEpoch` calls that failed.
    close: u64,
}

impl Failures {
    /// Count `n` frames failed by `err`.
    fn count(&mut self, err: &RpcError, n: u64) {
        let slot = match err {
            RpcError::DeadlineExceeded => &mut self.deadline,
            RpcError::Io(e) if matches!(e.kind(), ErrorKind::TimedOut | ErrorKind::WouldBlock) => {
                &mut self.deadline
            }
            // the stream client reports refusals and nacks as I/O errors
            RpcError::Io(e) if e.to_string().contains("Overloaded") => &mut self.overloaded,
            RpcError::Io(e) if e.to_string().contains("out of sequence") => &mut self.nack,
            _ => &mut self.transport,
        };
        *slot += n;
    }

    fn add(self, o: Failures) -> Failures {
        Failures {
            overloaded: self.overloaded + o.overloaded,
            nack: self.nack + o.nack,
            deadline: self.deadline + o.deadline,
            transport: self.transport + o.transport,
            query: self.query + o.query,
            close: self.close + o.close,
        }
    }

    fn render(&self) -> String {
        let mut o = Obj::default();
        o.num("overloaded", self.overloaded as f64)
            .num("stream_nack", self.nack as f64)
            .num("deadline", self.deadline as f64)
            .num("transport", self.transport as f64)
            .num("query", self.query as f64)
            .num("close", self.close as f64);
        o.render()
    }
}

/// Thread A, saturation: one `InsertStream` session, closed loop, timed
/// from its first send until every frame is acked.
fn stream_saturation(sh: &Shared, phase: &Phase, spans: &mut Spans, frame_base: u64) -> StreamSide {
    let mut side = StreamSide::default();
    let mut client = RpcClient::new(patient());
    let start = Instant::now();
    let mut stream = match client.open_insert_stream(sh.addr, SAT_WINDOW) {
        Ok(s) => s,
        Err(err) => {
            side.frames = phase.frames.len() as u64;
            side.failures.count(&err, side.frames);
            side.failed = side.frames;
            return side;
        }
    };
    for (i, fr) in phase.frames.iter().enumerate() {
        let blocks = stream.in_flight() + 1 >= SAT_WINDOW as u64;
        let s = Instant::now();
        let res = stream.send(phase.frame(i));
        let e = Instant::now();
        side.frames += 1;
        if let Err(err) = res {
            // the session is poisoned: this frame and every later one fail
            let left = (phase.frames.len() - i) as u64;
            side.failures.count(&err, left);
            side.failed += left;
            side.frames += left - 1;
            return side;
        }
        side.ratings += fr.len as u64;
        sh.sent.fetch_add(fr.len as u64, Ordering::Relaxed);
        let trace = frame_base + i as u64;
        if blocks {
            side.ack_wait_ms.push((e - s).as_secs_f64() * 1e3);
            spans.record("net.client.ack_wait", s, e, None, trace);
        } else {
            side.send_us.push((e - s).as_secs_f64() * 1e6);
            spans.record("net.client.send", s, e, None, trace);
        }
    }
    let s = Instant::now();
    match client.close_insert_stream(stream) {
        Ok(stats) => side.bytes = stats.bytes_sent,
        Err(err) => {
            side.failures.count(&err, 1);
            side.failed += 1;
        }
    }
    let e = Instant::now();
    spans.record("net.client.finish", s, e, None, frame_base + phase.frames.len() as u64);
    side.rps = side.ratings as f64 / (e - start).as_secs_f64();
    side
}

/// Thread A, paced: each frame sent when its last rating has arrived,
/// over a window-1 stream so its ack is read as it arrives; the published
/// view is polled while waiting.
fn stream_paced(
    sh: &Shared,
    mut reader: ViewReader,
    phase: &Phase,
    t0: Instant,
    spans: &mut Spans,
    frame_base: u64,
) -> StreamSide {
    let mut side = StreamSide::default();
    let mut last_view = u64::MAX;
    let mut client = RpcClient::new(patient());
    client.forget(sh.addr);
    let mut stream = match client.open_insert_stream(sh.addr, PACED_WINDOW) {
        Ok(s) => s,
        Err(err) => {
            side.frames = phase.frames.len() as u64;
            side.failures.count(&err, side.frames);
            side.failed = side.frames;
            side.acked = vec![None; phase.frames.len()];
            return side;
        }
    };
    for (i, fr) in phase.frames.iter().enumerate() {
        let due = t0 + Duration::from_nanos(fr.due_ns);
        loop {
            sh.observe(&mut reader, &mut last_view);
            let now = Instant::now();
            if now >= due {
                break;
            }
            std::thread::sleep((due - now).min(Duration::from_millis(1)));
        }
        let s = Instant::now();
        let res = stream.send(phase.frame(i));
        let e = Instant::now();
        side.frames += 1;
        if let Err(err) = res {
            // the session is poisoned: this frame and every later one fail
            let left = phase.frames.len() - i;
            side.failures.count(&err, left as u64);
            side.failed += left as u64;
            side.frames += left as u64 - 1;
            side.acked.extend(std::iter::repeat_n(None, left));
            break;
        }
        side.ratings += fr.len as u64;
        sh.sent.fetch_add(fr.len as u64, Ordering::Relaxed);
        side.ack_wait_ms.push((e - s).as_secs_f64() * 1e3);
        side.acked.push(Some((sh.ns(s), sh.ns(e))));
        let trace = frame_base + i as u64;
        let root =
            spans.push(Span { name: "ack", start: sh.ns(due), end: sh.ns(e), parent: None, trace });
        spans.push(Span {
            name: "bench.gen_late",
            start: sh.ns(due),
            end: sh.ns(s),
            parent: root,
            trace,
        });
        spans.record("net.client.send", s, e, root, trace);
        sh.observe(&mut reader, &mut last_view);
    }
    match client.close_insert_stream(stream) {
        Ok(stats) => side.bytes = stats.bytes_sent,
        Err(err) => {
            side.failures.count(&err, 1);
            side.failed += 1;
        }
    }
    side
}

/// Thread B: in the paced phase, closes (after a `Status` sample) on the
/// close cadence and queries; in either phase, one last close once thread
/// A is done.
fn control_phase(
    sh: &Shared,
    node_reader: ViewReader,
    paced: bool,
    spec: &Spec,
    queries: &[(u64, NodeId)],
    t0: Instant,
    spans: &mut Spans,
) -> ControlSide {
    let mut side = ControlSide::default();
    let mut reader = node_reader;
    let mut last_view = u64::MAX;
    let mut ctl = RpcClient::new(patient());
    let mut next_close = 1u64;
    let mut qi = 0usize;
    let burst = spec.query_burst.max(1);
    loop {
        let a_done = sh.done.load(Ordering::Acquire);
        let queries_left = paced && qi < queries.len();
        if a_done && !queries_left {
            break;
        }
        let now = Instant::now();
        if paced && now >= t0 + Duration::from_millis(spec.close_ms * next_close) {
            close_epoch(sh, &mut ctl, &mut reader, &mut last_view, &mut side, spans);
            next_close += 1;
            continue;
        }
        // a burst is due when its first query is
        if queries_left && now >= t0 + Duration::from_nanos(queries[qi - qi % burst].0) {
            let s = Instant::now();
            let res = ctl.call(sh.addr, &Request::Query(queries[qi].1));
            let e = Instant::now();
            side.attempted += 1;
            let us = if matches!(res, Ok(Response::Reputation { .. })) {
                (e - s).as_secs_f64() * 1e6
            } else {
                side.failures.query += 1;
                side.failed += 1;
                f64::INFINITY
            };
            side.query_us.push(us);
            spans.record("net.client.query", s, e, None, qi as u64);
            qi += 1;
            continue;
        }
        std::thread::sleep(Duration::from_micros(if paced { 500 } else { 1000 }));
    }
    close_epoch(sh, &mut ctl, &mut reader, &mut last_view, &mut side, spans);
    side
}

/// One `CloseEpoch` after a `Status` sample, then a look at the view.
fn close_epoch(
    sh: &Shared,
    ctl: &mut RpcClient,
    reader: &mut ViewReader,
    last_view: &mut u64,
    side: &mut ControlSide,
    spans: &mut Spans,
) {
    if let Ok(Response::Status(info)) = ctl.call(sh.addr, &Request::Status) {
        side.intake_max = side.intake_max.max(info.intake_pending);
        side.backlog_max = side.backlog_max.max(info.wal_len - info.durable_len);
    }
    let sent = sh.sent.load(Ordering::Relaxed);
    let s = Instant::now();
    let res = ctl.call(sh.addr, &Request::CloseEpoch);
    let e = Instant::now();
    side.attempted += 1;
    if !matches!(res, Ok(Response::Ack { .. })) {
        side.failures.close += 1;
        side.failed += 1;
    }
    spans.record("net.server.close_rpc", s, e, None, side.closes.len() as u64);
    side.closes.push(Close { start: sh.ns(s), end: sh.ns(e), sent });
    sh.observe(reader, last_view);
}

/// Spawn the manager and time it to its first answered query.
fn spawn(cfg: &ManagerConfig, ctl: &mut RpcClient) -> Result<(ManagerNode, f64, f64), String> {
    let t0 = Instant::now();
    let node = ManagerNode::spawn(cfg.clone()).map_err(|e| format!("spawn: {e}"))?;
    let spawned = t0.elapsed().as_secs_f64();
    match ctl.call(node.addr(), &Request::Query(NodeId(1))) {
        Ok(Response::Reputation { .. }) => {}
        other => return Err(format!("first query after spawn: {other:?}")),
    }
    Ok((node, t0.elapsed().as_secs_f64(), spawned))
}

fn status(
    ctl: &mut RpcClient,
    addr: std::net::SocketAddr,
) -> Result<collusion_core::net::wire::StatusInfo, String> {
    match ctl.call(addr, &Request::Status) {
        Ok(Response::Status(info)) => Ok(info),
        other => Err(format!("status: {other:?}")),
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for e in std::fs::read_dir(from)? {
        let e = e?;
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &to.join(e.file_name()))?;
        } else {
            std::fs::copy(e.path(), to.join(e.file_name()))?;
        }
    }
    Ok(())
}

/// Run one TCP workload.
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

    // untimed prelude: the manager's WAL written through DurableEngine
    let mdir = dir.join("manager");
    let mut boundaries = Vec::new();
    {
        let mut eng = DurableEngine::create(&mdir, &nodes, Spec::setup(), Spec::durability())
            .map_err(|e| format!("prelude: {e}"))?;
        let every = (spec.preload / spec.preload_closes.max(1)).max(1);
        let mut fed = 0u64;
        for i in 0..preload.frames.len() {
            let f = preload.frame(i);
            eng.record_batch(f).map_err(|e| format!("prelude: {e}"))?;
            fed += f.len() as u64;
            if fed / every > boundaries.len() as u64 {
                eng.close_epoch().map_err(|e| format!("prelude: {e}"))?;
                boundaries.push(fed);
            }
        }
        eng.close_epoch().map_err(|e| format!("prelude: {e}"))?;
        eng.sync().map_err(|e| format!("prelude: {e}"))?;
    }
    let cfg = Spec::manager(&mdir, &nodes);

    // set-up: rejoin from the WAL until the first answered query, repeated
    let mut ctl = RpcClient::new(patient());
    let mut setup_s = Vec::new();
    let mut spawn_s = Vec::new();
    let mut node = None;
    for r in 0..spec.reps.max(1) {
        let (n, total, spawned) = spawn(&cfg, &mut ctl)?;
        setup_s.push(total);
        spawn_s.push(spawned);
        if r + 1 < spec.reps.max(1) {
            ctl.forget(n.addr());
            n.kill().map_err(|e| format!("kill: {e}"))?;
        } else {
            node = Some(n);
        }
    }
    let node = node.expect("at least one set-up repetition");
    let addr = node.addr();
    let before = status(&mut ctl, addr)?;

    let sh = Shared {
        origin,
        pop,
        addr,
        sent: AtomicU64::new(spec.preload),
        done: AtomicBool::new(false),
        observed: (0..pop.pairs).map(|_| AtomicU64::new(u64::MAX)).collect(),
    };
    let mut spans_a = Spans::new(trace, origin);
    let mut spans_b = Spans::new(trace, origin);
    let qs = &qs;
    let mut run_phase = |phase: &Phase, paced: bool, frame_base: u64| {
        sh.done.store(false, Ordering::Release);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            let (ra, rb) = (node.view_reader(), node.view_reader());
            let (sa, sb) = (&mut spans_a, &mut spans_b);
            let sh = &sh;
            let a = s.spawn(move || {
                let out = if paced {
                    stream_paced(sh, ra, phase, t0, sa, frame_base)
                } else {
                    stream_saturation(sh, phase, sa, frame_base)
                };
                sh.done.store(true, Ordering::Release);
                out
            });
            let b = s.spawn(move || control_phase(sh, rb, paced, spec, qs, t0, sb));
            (t0, a.join().expect("stream thread"), b.join().expect("control thread"))
        })
    };
    let (_, sa, sb) = run_phase(&sat, false, 0);
    let (paced_t0, pa, pb) = run_phase(&paced, true, sat.frames.len() as u64);

    // every rating sent is recorded once and acked
    let after = status(&mut ctl, addr)?;
    let pre_kill = node.view_reader().get().report.pair_ids();
    let sent_total = sa.ratings + pa.ratings;
    let mut gate = Vec::new();
    if after.recorded != spec.preload + sent_total {
        gate.push(format!(
            "recorded {} != preload {} + sent {sent_total}",
            after.recorded, spec.preload
        ));
    }
    if after.stream_ratings - before.stream_ratings != sent_total {
        gate.push(format!(
            "stream_ratings delta {} != sent {sent_total}",
            after.stream_ratings - before.stream_ratings
        ));
    }
    let expected = sat.ratings.len() as u64 + paced.ratings.len() as u64;
    if sent_total != expected {
        gate.push(format!("sent {sent_total} of {expected} ratings"));
    }

    // the load phases' memory high-water; the restart's replay buffers are
    // not part of the running manager's footprint
    let peak_rss = peak_rss_mb();

    // restart: kill, rejoin, answer with the pre-kill report
    let mut recover_s = Vec::new();
    let mut respawn_s = Vec::new();
    let mut kill_s = Vec::new();
    let mut node = Some(node);
    for _ in 0..spec.reps.max(1) {
        let t0 = Instant::now();
        let old = node.take().expect("a live manager");
        ctl.forget(old.addr());
        old.kill().map_err(|e| format!("kill: {e}"))?;
        kill_s.push(t0.elapsed().as_secs_f64());
        let (n, _, spawned) = spawn(&cfg, &mut ctl)?;
        respawn_s.push(spawned);
        let mut r = n.view_reader();
        while r.get().report.pair_ids() != pre_kill {
            if t0.elapsed() > RESTART_PATIENCE {
                gate.push("restarted manager never reported the pre-kill verdicts".into());
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        recover_s.push(t0.elapsed().as_secs_f64());
        node = Some(n);
    }
    let last = node.take().expect("a live manager");
    ctl.forget(last.addr());
    last.kill().map_err(|e| format!("kill: {e}"))?;

    // untimed serial reference, closed where the run closed
    boundaries.push(spec.preload);
    boundaries.extend(sb.closes.iter().chain(&pb.closes).map(|c| c.sent));
    let stream: [&[Rating]; 3] = [&preload.ratings, &sat.ratings, &paced.ratings];
    let (reference, close_timings) =
        layers::serial_reference(&nodes, Spec::setup(), &stream, &boundaries);
    let planted = pop.planted();
    if pre_kill != planted {
        gate.push(format!("manager flagged {} pairs, planted {}", pre_kill.len(), planted.len()));
    }
    if reference.report().pair_ids() != pre_kill {
        gate.push("manager verdicts differ from the serial reference".into());
    }

    // ack: per rating, from its arrival to the ack of the frame carrying it
    let ms = |a: u64, b: u64| b.saturating_sub(a) as f64 / 1e6;
    let p0 = sh.ns(paced_t0);
    let mut ack_rows: Vec<(f64, Vec<f64>)> = Vec::with_capacity(paced.ratings.len());
    for (fr, acked) in paced.frames.iter().zip(&pa.acked) {
        let frame_due = p0 + fr.due_ns;
        for j in fr.start as usize..(fr.start + fr.len) as usize {
            let due = p0 + paced.rating_due_ns(j);
            ack_rows.push(match acked {
                Some((s, e)) => {
                    (ms(due, *e), vec![ms(due, frame_due), ms(frame_due, *s), ms(*s, *e)])
                }
                None => (f64::INFINITY, vec![0.0; 3]),
            });
        }
    }
    let ack_ms: Vec<f64> = ack_rows.iter().map(|r| r.0).collect();
    let ack = Summary::chunked(&ack_ms, P99_CHUNKS);

    // verdict: from a block's due time to the first view reporting its pair
    let mut closes: Vec<Close> = pb.closes.clone();
    closes.sort_by_key(|c| c.start);
    let mut verdict_rows = Vec::new();
    let mut verdict_spans = Spans::new(trace, origin);
    for fr in &paced.frames {
        let Some(k) = fr.pair else { continue };
        let due = p0 + fr.due_ns;
        let seen = sh.observed[k as usize].load(Ordering::Relaxed);
        let Some(c) = closes.iter().rev().find(|c| c.start <= seen && seen != u64::MAX) else {
            verdict_rows.push((f64::INFINITY, vec![0.0; 3]));
            continue;
        };
        let parts = vec![ms(due, c.start), ms(c.start, seen.min(c.end)), ms(c.end, seen)];
        verdict_rows.push((ms(due, seen), parts));
        let trace_id = k as u64;
        let root = verdict_spans.push(Span {
            name: "verdict",
            start: due,
            end: seen,
            parent: None,
            trace: trace_id,
        });
        for (name, a, b) in [
            ("verdict.wait_close", due, c.start.max(due)),
            ("verdict.close", c.start.max(due), seen.min(c.end)),
            ("verdict.observe", c.end, seen.max(c.end)),
        ] {
            verdict_spans.push(Span { name, start: a, end: b, parent: root, trace: trace_id });
        }
    }
    let mut verdict_ms: Vec<f64> = verdict_rows.iter().map(|r| r.0).collect();
    let verdict = Summary::of(&mut verdict_ms);
    let query = Summary::chunked(&pb.query_us, P99_CHUNKS);

    let mut e2e = Metrics::default();
    e2e.set("setup_s", median(&setup_s), "s");
    e2e.set("ingest_rps", sa.rps, "1/s");
    e2e.set("ack_p50_ms", ack.p50, "ms");
    e2e.set("ack_p99_ms", ack.p99, "ms");
    e2e.set("verdict_p50_ms", verdict.p50, "ms");
    e2e.set("verdict_p99_ms", verdict.p99, "ms");
    e2e.set("query_p50_us", query.p50, "us");
    e2e.set("recover_s", median(&recover_s), "s");
    e2e.set("peak_rss_mb", peak_rss, "MB");

    let attempted = pa.frames + sa.frames + pb.attempted + sb.attempted;
    let failed = pa.failed + sa.failed + pb.failed + sb.failed;
    let failures = pa.failures.add(sa.failures).add(pb.failures).add(sb.failures);

    let mut detail = Obj::default();
    let mut samples = Obj::default();
    samples
        .raw("ack", summary_obj(&ack))
        .raw("verdict", summary_obj(&verdict))
        .raw("query", summary_obj(&query))
        .raw("setup_s", format!("{setup_s:?}"))
        .raw("recover_s", format!("{recover_s:?}"))
        .raw("kill_s", format!("{kill_s:?}"));
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
        .num("closes", (pb.closes.len() + sb.closes.len()) as f64);
    detail.raw("counts", counts.render());
    detail.raw("failures", failures.render());
    let mut server = Obj::default();
    server
        .num("throttled_frames", after.throttled_frames as f64)
        .num("refused_frames", after.refused_frames as f64);
    detail.raw("server", server.render());

    // per-layer metrics
    let mut lay = Metrics::default();
    let mut late: Vec<f64> = pa
        .acked
        .iter()
        .zip(&paced.frames)
        .filter_map(|(a, fr)| a.map(|(s, _)| ms(p0 + fr.due_ns, s)))
        .collect();
    let gen_late_p99 = Summary::of(&mut late).p99;
    lay.set("bench.gen_late_p99_ms", gen_late_p99, "ms");
    detail.num("gen_late_p99_ms", gen_late_p99);
    lay.set("net.client.send_us_p50", median(&sa.send_us), "us");
    lay.set("net.client.query_us_p99", query.p99, "us");
    lay.set("net.client.ack_wait_ms_p50", median(&pa.ack_wait_ms), "ms");
    lay.set("net.client.bytes_per_rating", (sa.bytes + pa.bytes) as f64 / sent_total as f64, "B");
    let mut close_ms: Vec<f64> =
        pb.closes.iter().chain(&sb.closes).map(|c| ms(c.start, c.end)).collect();
    let cs = Summary::of(&mut close_ms);
    lay.set("net.server.close_rpc_ms_p50", cs.p50, "ms");
    lay.set("net.server.close_rpc_ms_max", cs.max, "ms");
    lay.set(
        "net.server.views_per_kratings",
        (after.view_version - before.view_version) as f64 * 1000.0 / sent_total as f64,
        "count",
    );
    lay.set("net.server.intake_pending_max", pb.intake_max.max(sb.intake_max) as f64, "count");
    lay.set("net.server.wal_backlog_bytes_max", pb.backlog_max.max(sb.backlog_max) as f64, "B");
    lay.set("net.server.throttled_frames", after.throttled_frames as f64, "count");
    lay.set("net.server.refused_frames", after.refused_frames as f64, "count");
    lay.set("net.server.spawn_s", median(&spawn_s), "s");
    lay.set(
        "reputation.wal.bytes_per_rating",
        (after.wal_len - before.wal_len) as f64 / sent_total as f64,
        "B",
    );
    let per_close = |f: fn(&CloseTimings) -> u64| {
        median(&close_timings.iter().map(|t| f(t) as f64 / 1e6).collect::<Vec<_>>())
    };
    lay.set("core.epoch.advance_ms_p50", per_close(|t| t.advance_ns), "ms");
    lay.set("core.epoch.enumerate_ms_p50", per_close(|t| t.enumerate_ns), "ms");
    lay.set("core.epoch.recheck_ms_p50", per_close(|t| t.recheck_ns), "ms");
    let es = reference.stats();
    lay.set(
        "core.epoch.candidates_per_close",
        es.candidates as f64 / es.epochs.max(1) as f64,
        "count",
    );
    lay.set("core.epoch.flag_yield", planted.len() as f64 / es.checked.max(1) as f64, "ratio");
    lay.set("reputation.sharded.nnz", reference.snapshot().nnz() as f64, "count");
    drop(reference);

    let mut split = Obj::default();
    if trace {
        let frames: Vec<&[Rating]> = (0..sat.frames.len())
            .map(|i| sat.frame(i))
            .chain((0..paced.frames.len()).map(|i| paced.frame(i)))
            .collect();
        let (enc, dec) = layers::wire_codec(&frames);
        lay.set("net.wire.encode_ns_per_rating", enc, "ns");
        lay.set("net.wire.decode_ns_per_rating", dec, "ns");
        let all: Vec<Rating> = stream.iter().flat_map(|s| s.iter().copied()).collect();
        lay.set("reputation.snapshot.build_ms", layers::snapshot_build_ms(&all, &nodes), "ms");
        let wdir = dir.join("wal-replay");
        std::fs::create_dir_all(&wdir).map_err(|e| e.to_string())?;
        let (append_ns, sync_us) = layers::wal_replay(&wdir, &frames, 200);
        lay.set("reputation.wal.append_ns_per_rating", append_ns, "ns");
        lay.set("reputation.wal.sync_us_p50", sync_us, "us");
        let copy = dir.join("manager-copy");
        copy_dir(&mdir, &copy).map_err(|e| format!("copy manager dir: {e}"))?;
        let t = Instant::now();
        let (eng, rep) = DurableEngine::recover(&copy, &nodes, Spec::setup(), Spec::durability())
            .map_err(|e| format!("recover copy: {e}"))?;
        let rec = t.elapsed().as_secs_f64();
        drop(eng);
        lay.set("core.durability.recover_s", rec, "s");
        lay.set("core.durability.replayed_records", rep.replayed_records as f64, "count");
        lay.set("net.server.history_rebuild_s", median(&respawn_s) - rec, "s");

        // ack split: batching wait, generator lateness, then the send call
        // divided into staging (the encode replay) and the ack wait
        let per_frame_stage = enc * FRAME_RATINGS as f64 / 1e6;
        let rows: Vec<(f64, Vec<f64>)> = ack_rows
            .into_iter()
            .map(|(total, p)| {
                let stage = per_frame_stage.min(p[2]);
                (total, vec![p[0], p[1], stage, p[2] - stage])
            })
            .collect();
        let (band, parts) = median_split(&rows, 0.45, 0.55);
        let names = ["batch_wait", "gen_late", "send_stage", "ack_wait"];
        split.raw("ack", split_obj(ack.p50, band, &names, &parts));
        for (n, v) in names.iter().zip(&parts) {
            lay.set(&format!("split.ack.{n}_ms"), *v, "ms");
        }
        lay.set("split.ack.sum_over_p50", parts.iter().sum::<f64>() / ack.p50, "ratio");
        let (band, parts) = median_split(&verdict_rows, 0.45, 0.55);
        let names = ["wait_close", "close", "observe"];
        split.raw("verdict", split_obj(verdict.p50, band, &names, &parts));
        for (n, v) in names.iter().zip(&parts) {
            lay.set(&format!("split.verdict.{n}_ms"), *v, "ms");
        }
        lay.set("split.verdict.sum_over_p50", parts.iter().sum::<f64>() / verdict.p50, "ratio");
        lay.set("bench.trace.ack_p50_ms", ack.p50, "ms");
        lay.set("bench.trace.verdict_p50_ms", verdict.p50, "ms");
        lay.set("bench.trace.ingest_rps", sa.rps, "1/s");
    }
    detail.raw("split", split.render());
    let mut spans = spans_a;
    spans.absorb(spans_b);
    spans.absorb(verdict_spans);
    Ok(Outcome { e2e, layers: lay, attempted, failed, detail, spans, gate })
}
