//! Layer replays: each layer's public function timed alone on the run's
//! own inputs, after the end-to-end phases finished. Also the serial
//! `EpochEngine` reference that every run's verdicts are checked against.

use std::path::Path;
use std::time::Instant;

use collusion_core::durability::EngineSetup;
use collusion_core::epoch::{CloseTimings, EpochEngine};
use collusion_core::net::wire::Request;
use collusion_reputation::history::InteractionHistory;
use collusion_reputation::id::NodeId;
use collusion_reputation::rating::Rating;
use collusion_reputation::snapshot::DetectionSnapshot;
use collusion_reputation::wal::{Wal, WalRecord};

use crate::stats::median;

/// Wire codec cost over `frames`: `(encode, decode)` ns per rating, each
/// the median of three passes.
pub fn wire_codec(frames: &[&[Rating]]) -> (f64, f64) {
    let ratings: usize = frames.iter().map(|f| f.len()).sum::<usize>().max(1);
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let encoded: Vec<Vec<u8>> = frames
            .iter()
            .enumerate()
            .map(|(i, f)| Request::encode_insert_stream(0, i as u64 + 1, f))
            .collect();
        let t1 = Instant::now();
        let mut decoded = 0usize;
        for bytes in &encoded {
            if let Ok(Request::InsertStream { ratings, .. }) = Request::decode(bytes) {
                decoded += ratings.len();
            }
        }
        let t2 = Instant::now();
        assert_eq!(decoded, ratings, "wire codec round trip lost ratings");
        std::hint::black_box(&encoded);
        enc.push((t1 - t0).as_nanos() as f64 / ratings as f64);
        dec.push((t2 - t1).as_nanos() as f64 / ratings as f64);
    }
    (median(&enc), median(&dec))
}

/// One `DetectionSnapshot::build` (the work of one server view
/// publication) over `ratings`, ms: median of three builds.
pub fn snapshot_build_ms(ratings: &[Rating], nodes: &[NodeId]) -> f64 {
    let mut history = InteractionHistory::new();
    for r in ratings {
        history.record(*r);
    }
    let times: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            let snap = DetectionSnapshot::build(&history, nodes);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            std::hint::black_box(snap.nnz());
            ms
        })
        .collect();
    median(&times)
}

/// WAL append and sync replay in `dir`: every frame appended as one
/// batch, the first `synced` frames each followed by a sync. Returns
/// `(append ns per rating, sync µs p50)`.
pub fn wal_replay(dir: &Path, frames: &[&[Rating]], synced: usize) -> (f64, f64) {
    let path = dir.join("replay.wal");
    let mut wal = Wal::create(&path, 0).expect("create replay WAL");
    let mut append_ns = 0u128;
    let mut ratings = 0usize;
    let mut syncs = Vec::new();
    for (i, f) in frames.iter().enumerate() {
        let t0 = Instant::now();
        wal.append_ratings(f).expect("replay WAL append");
        wal.append(&WalRecord::StreamSession { session: 1, frame_seq: i as u64 + 1, accepted: 0 })
            .expect("replay WAL append");
        append_ns += t0.elapsed().as_nanos();
        ratings += f.len();
        if i < synced {
            let t1 = Instant::now();
            wal.sync().expect("replay WAL sync");
            syncs.push(t1.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(wal);
    std::fs::remove_file(&path).ok();
    (append_ns as f64 / ratings.max(1) as f64, median(&syncs))
}

/// The untimed serial reference: a fresh `EpochEngine` fed `stream` with a
/// close after each boundary (a rating count) and a final close. Returns
/// the engine and each non-empty close's sub-stage timings.
pub fn serial_reference(
    nodes: &[NodeId],
    setup: EngineSetup,
    stream: &[&[Rating]],
    boundaries: &[u64],
) -> (EpochEngine, Vec<CloseTimings>) {
    let mut engine = EpochEngine::new(
        nodes,
        setup.target_shards,
        setup.method,
        setup.thresholds,
        setup.policy,
        setup.prune,
    );
    engine.set_close_threads(setup.close_threads);
    let mut timings = Vec::new();
    let mut close = |engine: &mut EpochEngine| {
        if engine.pending_ratings() > 0 {
            engine.close_epoch();
            timings.push(engine.last_close_timings());
        }
    };
    let mut next = boundaries.iter().copied().peekable();
    for (fed, r) in stream.iter().flat_map(|s| s.iter()).enumerate() {
        while next.peek().is_some_and(|&b| b <= fed as u64) {
            next.next();
            close(&mut engine);
        }
        engine.record(*r);
    }
    close(&mut engine);
    (engine, timings)
}
