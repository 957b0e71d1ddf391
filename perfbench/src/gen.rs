//! Seeded inputs: Amazon-shaped background traffic with planted collusion
//! blocks interleaved, cut into frames that carry due times.
//!
//! The background has the shape of `collusion_trace::scale`: raters drawn
//! uniformly from the honest population, ratees from a u² heavy-tailed
//! popularity, 90 % positive. Background ratings never touch a colluder.
//! A planted block for pair `(a, b)` is 30 mutual +1 ratings in each
//! direction plus one −1 from each of 10 distinct community raters per
//! member, so under `Thresholds::new(1.0, 20, 0.8, 0.2)` and the strict
//! policy every planted pair is flagged and nothing else is.
//!
//! Everything is a pure function of the seed: the same seed gives a
//! byte-identical rating stream, frame cut and schedule.

use collusion_reputation::id::{NodeId, SimTime};
use collusion_reputation::rating::{Rating, RatingValue};

/// Background ratings per frame (one `InsertStream` frame or submit burst).
pub const FRAME_RATINGS: usize = 256;
/// Ratings in one planted block.
pub const BLOCK_RATINGS: usize = 80;

/// SplitMix64: a small, seedable, well-mixed generator.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Generator for one named stream of a run seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next();
        r
    }

    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Node population: honest ids `1..=honest`, then `2 · pairs` colluders.
#[derive(Clone, Copy, Debug)]
pub struct Population {
    /// Total node count.
    pub nodes: u64,
    /// Planted pairs over the whole run.
    pub pairs: u64,
}

impl Population {
    /// Honest node count (ids `1..=honest`).
    pub fn honest(&self) -> u64 {
        self.nodes - 2 * self.pairs
    }

    /// Every node id, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        (1..=self.nodes).map(NodeId).collect()
    }

    /// Planted pair `k` as `(low, high)`.
    pub fn pair(&self, k: u64) -> (NodeId, NodeId) {
        let a = self.honest() + 1 + 2 * k;
        (NodeId(a), NodeId(a + 1))
    }

    /// Index of the planted pair `(low, high)`, if it is one.
    pub fn pair_index(&self, low: NodeId, high: NodeId) -> Option<usize> {
        let first = self.honest() + 1;
        let a = low.raw();
        if a < first || high.raw() != a + 1 || !(a - first).is_multiple_of(2) {
            return None;
        }
        let k = (a - first) / 2;
        (k < self.pairs).then_some(k as usize)
    }

    /// Every planted pair, in pair order.
    pub fn planted(&self) -> Vec<(NodeId, NodeId)> {
        (0..self.pairs).map(|k| self.pair(k)).collect()
    }

    /// A query target drawn from the same heavy-tailed popularity the
    /// background ratees follow.
    pub fn query_id(&self, rng: &mut Rng) -> NodeId {
        NodeId(popular(rng, self.honest()))
    }
}

/// u²-popularity draw in `1..=honest`: low ids absorb most of the mass.
fn popular(rng: &mut Rng, honest: u64) -> u64 {
    let u = rng.unit();
    (1 + ((honest as f64) * u * u) as u64).min(honest)
}

/// Rating source of one run: background and planted blocks share one
/// logical clock, so timestamps increase along the stream.
#[derive(Debug)]
pub struct Source {
    pop: Population,
    rng: Rng,
    t: u64,
    next_pair: u64,
}

impl Source {
    /// Source over `pop` for run seed `seed`.
    pub fn new(pop: Population, seed: u64) -> Self {
        Source { pop, rng: Rng::new(seed, 1), t: 0, next_pair: 0 }
    }

    /// Append `count` background ratings.
    pub fn background(&mut self, count: u64, out: &mut Vec<Rating>) {
        let honest = self.pop.honest();
        let mut made = 0;
        while made < count {
            let rater = 1 + self.rng.below(honest);
            let ratee = popular(&mut self.rng, honest);
            let value =
                if self.rng.below(10) == 0 { RatingValue::Negative } else { RatingValue::Positive };
            if rater == ratee {
                continue;
            }
            out.push(Rating::new(NodeId(rater), NodeId(ratee), value, SimTime(self.t)));
            self.t += 1;
            made += 1;
        }
    }

    /// Append the next planted block; returns its pair index.
    ///
    /// # Panics
    /// If every planted pair of the population was already used.
    pub fn block(&mut self, out: &mut Vec<Rating>) -> u32 {
        assert!(self.next_pair < self.pop.pairs, "population has no planted pair left");
        let k = self.next_pair;
        self.next_pair += 1;
        let (a, b) = self.pop.pair(k);
        let start = out.len();
        for _ in 0..30 {
            out.push(Rating::positive(a, b, SimTime(self.t)));
            out.push(Rating::positive(b, a, SimTime(self.t)));
            self.t += 1;
        }
        // 10 distinct community raters, one complaint per colluder each:
        // below T_N, so they implicate nobody
        let base = self.rng.below(self.pop.honest() - 10);
        for j in 0..10 {
            let rater = NodeId(1 + base + j);
            out.push(Rating::negative(rater, a, SimTime(self.t)));
            out.push(Rating::negative(rater, b, SimTime(self.t)));
            self.t += 1;
        }
        debug_assert_eq!(out.len() - start, BLOCK_RATINGS);
        k as u32
    }
}

/// One frame of a phase: a contiguous slice of the phase's ratings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Offset of the first rating in [`Phase::ratings`].
    pub start: u32,
    /// Ratings in the frame.
    pub len: u32,
    /// Due time from the phase start, ns: when the frame's last rating
    /// arrives (0 in a closed-loop phase).
    pub due_ns: u64,
    /// Planted pair index when the frame is a block.
    pub pair: Option<u32>,
}

/// A fixed amount of work: ratings cut into frames. In a paced phase the
/// ratings arrive one by one at the offered rate and a frame is due when
/// its last rating has arrived; a planted block is one frame.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Every rating of the phase, in send order.
    pub ratings: Vec<Rating>,
    /// The frame cut.
    pub frames: Vec<Frame>,
    /// Offered rate, ratings/s (`None` in a closed-loop phase).
    pub rate: Option<f64>,
}

impl Phase {
    /// `background` ratings in 256-rating frames with `blocks` planted
    /// blocks interleaved at seeded positions. With `rate` (ratings/s),
    /// rating `i` arrives at `(i + 1) / rate`; without it the phase is
    /// closed loop.
    pub fn build(src: &mut Source, background: u64, blocks: u32, rate: Option<f64>) -> Phase {
        let bg_frames = background.div_ceil(FRAME_RATINGS as u64).max(1);
        // block k goes after background frame ⌊(k + u)·F/blocks⌋
        let mut slots: Vec<u64> = (0..blocks as u64)
            .map(|k| {
                let u = src.rng.unit();
                (((k as f64 + u) * bg_frames as f64) / blocks as f64) as u64
            })
            .collect();
        slots.sort_unstable();
        let mut phase = Phase::default();
        let mut next_slot = 0;
        let mut left = background;
        for f in 0..bg_frames {
            let take = left.min(FRAME_RATINGS as u64);
            left -= take;
            phase.push(|out| {
                src.background(take, out);
                None
            });
            while next_slot < slots.len() && slots[next_slot] <= f {
                phase.push(|out| Some(src.block(out)));
                next_slot += 1;
            }
        }
        phase.rate = rate;
        for i in 0..phase.frames.len() {
            let fr = phase.frames[i];
            phase.frames[i].due_ns = phase.rating_due_ns((fr.start + fr.len - 1) as usize);
        }
        phase
    }

    /// When rating `i` of a paced phase arrives, ns from the phase start.
    pub fn rating_due_ns(&self, i: usize) -> u64 {
        self.rate.map_or(0, |rate| ((i + 1) as f64 * 1e9 / rate) as u64)
    }

    fn push(&mut self, fill: impl FnOnce(&mut Vec<Rating>) -> Option<u32>) {
        let start = self.ratings.len();
        let pair = fill(&mut self.ratings);
        let len = self.ratings.len() - start;
        if len > 0 {
            self.frames.push(Frame { start: start as u32, len: len as u32, due_ns: 0, pair });
        }
    }

    /// The ratings of frame `i`.
    pub fn frame(&self, i: usize) -> &[Rating] {
        let f = self.frames[i];
        &self.ratings[f.start as usize..(f.start + f.len) as usize]
    }

    /// Planted blocks in the phase.
    pub fn blocks(&self) -> usize {
        self.frames.iter().filter(|f| f.pair.is_some()).count()
    }

    /// Due time of the phase's end: when its last rating falls due.
    pub fn span_ns(&self) -> u64 {
        self.frames.last().map_or(0, |f| f.due_ns)
    }
}

/// Counts of a paced phase lasting `seconds` at `rate` ratings/s, planted
/// blocks included: `(background ratings, blocks, queries)`.
pub fn paced_counts(
    rate: f64,
    blocks_per_s: f64,
    queries_per_s: f64,
    seconds: u64,
) -> (u64, u32, usize) {
    let s = seconds as f64;
    let blocks = (blocks_per_s * s) as u32;
    let all = (rate * s) as u64;
    (all.saturating_sub(blocks as u64 * BLOCK_RATINGS as u64), blocks, (queries_per_s * s) as usize)
}

/// `count` query targets with due times spread evenly over `span_ns`.
pub fn queries(pop: &Population, seed: u64, count: usize, span_ns: u64) -> Vec<(u64, NodeId)> {
    let mut rng = Rng::new(seed, 2);
    (0..count).map(|i| (span_ns * i as u64 / count.max(1) as u64, pop.query_id(&mut rng))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use collusion_core::epoch::{EpochEngine, EpochMethod};
    use collusion_core::policy::DetectionPolicy;
    use collusion_reputation::thresholds::Thresholds;

    fn bytes(p: &Phase) -> Vec<u8> {
        let mut out = Vec::new();
        for r in &p.ratings {
            out.extend_from_slice(&r.rater.raw().to_le_bytes());
            out.extend_from_slice(&r.ratee.raw().to_le_bytes());
            out.push(matches!(r.value, RatingValue::Positive) as u8);
            out.extend_from_slice(&r.time.0.to_le_bytes());
        }
        for f in &p.frames {
            out.extend_from_slice(&f.start.to_le_bytes());
            out.extend_from_slice(&f.len.to_le_bytes());
            out.extend_from_slice(&f.due_ns.to_le_bytes());
            out.extend_from_slice(&f.pair.map_or(u32::MAX, |k| k).to_le_bytes());
        }
        out
    }

    fn build(seed: u64) -> (Vec<u8>, Vec<(u64, NodeId)>) {
        let pop = Population { nodes: 3000, pairs: 20 };
        let mut src = Source::new(pop, seed);
        let a = Phase::build(&mut src, 5000, 8, None);
        let b = Phase::build(&mut src, 7000, 12, Some(5000.0));
        let mut all = bytes(&a);
        all.extend(bytes(&b));
        (all, queries(&pop, seed, 50, b.span_ns()))
    }

    #[test]
    fn same_seed_gives_identical_stream_and_schedule() {
        assert_eq!(build(7), build(7));
        assert_ne!(build(7).0, build(8).0);
    }

    #[test]
    fn paced_schedule_is_monotone_at_the_offered_rate() {
        let pop = Population { nodes: 3000, pairs: 10 };
        let mut src = Source::new(pop, 3);
        let p = Phase::build(&mut src, 10_000, 10, Some(2000.0));
        assert!(p.frames.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
        let last = p.frames.last().unwrap();
        assert!((last.due_ns as f64 / 1e9 - p.ratings.len() as f64 / 2000.0).abs() < 1e-6);
        assert_eq!(p.rating_due_ns(1999), 1_000_000_000);
        let (bg, blocks, q) = paced_counts(2000.0, 1.0, 30.0, 5);
        assert_eq!((bg + blocks as u64 * BLOCK_RATINGS as u64, blocks, q), (10_000, 5, 150));
        assert_eq!(p.blocks(), 10);
        assert!(p
            .frames
            .iter()
            .filter(|f| f.pair.is_some())
            .all(|f| f.len as usize == BLOCK_RATINGS));
    }

    #[test]
    fn planted_blocks_are_exactly_what_the_engine_flags() {
        let pop = Population { nodes: 2000, pairs: 12 };
        let mut src = Source::new(pop, 11);
        let a = Phase::build(&mut src, 30_000, 6, None);
        let b = Phase::build(&mut src, 30_000, 6, Some(1e6));
        assert!(a.ratings.iter().chain(&b.ratings).all(|r| r.rater != r.ratee));
        let mut engine = EpochEngine::new(
            &pop.node_ids(),
            4,
            EpochMethod::Optimized,
            Thresholds::new(1.0, 20, 0.8, 0.2),
            DetectionPolicy::STRICT,
            true,
        );
        for (i, r) in a.ratings.iter().chain(&b.ratings).enumerate() {
            engine.record(*r);
            if i % 7000 == 6999 {
                engine.close_epoch();
            }
        }
        let report = engine.close_epoch();
        assert_eq!(report.pair_ids(), pop.planted());
        for (k, (lo, hi)) in pop.planted().into_iter().enumerate() {
            assert_eq!(pop.pair_index(lo, hi), Some(k));
        }
        assert_eq!(pop.pair_index(NodeId(1), NodeId(2)), None);
    }
}
