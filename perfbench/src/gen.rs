//! Seeded input generation for every workload.
//!
//! The benchmark owns its randomness (a SplitMix64 stream, independent of
//! the library's own RNG), so the inputs a seed produces never change when
//! the program under test changes. Everything the program receives — op
//! orders, campaign grids, deck texts and arrival times — comes from here,
//! and [`Digest`] fingerprints it so every run can print what it fed in.

/// The paper circuits of the `table2` workload, in reference order.
pub const PAPER_CIRCUITS: [&str; 3] = ["strongarm", "logic_path", "ring_osc"];

/// SplitMix64: tiny, seedable, and stable across platforms.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, separated per purpose by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// FNV-1a fingerprint of generated inputs.
#[derive(Clone, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a number in by its exact bits.
    pub fn num(&mut self, x: f64) {
        self.bytes(&x.to_bits().to_le_bytes());
    }

    /// The fingerprint as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Op kinds `0..n` in seed-shuffled round-robin rounds: every round runs
/// each kind once, so every kind gets the same share of the run.
pub struct Rounds {
    rng: Rng,
    n: usize,
    round: Vec<usize>,
}

impl Rounds {
    /// Rounds of `n` kinds drawn from the seed's `stream`.
    pub fn new(seed: u64, stream: u64, n: usize) -> Self {
        Rounds {
            rng: Rng::new(seed, stream),
            n,
            round: Vec::new(),
        }
    }
}

impl Iterator for Rounds {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.round.is_empty() {
            self.round = self.rng.permutation(self.n);
        }
        self.round.pop()
    }
}

// ── table2 ──

/// The `table2` op order: the three paper circuits in seed-shuffled
/// round-robin rounds.
pub fn table2_order(seed: u64) -> Rounds {
    Rounds::new(seed, 1, PAPER_CIRCUITS.len())
}

// ── sigma-sweep ──

/// Nominal logic-path supply (the deck's `vdd` parameter).
pub const VDD_NOMINAL: f64 = 1.2;

/// The `sigma-sweep` grid shapes, one per op class, as (supply corners,
/// σ-scale levels): every shape has 12 scenarios, and its corners are its
/// unique solves. `2x6` is the grid of two corners the workload is built
/// around; `1x12` shares one solve among all scenarios, so result cloning
/// and report assembly dominate; `4x3` runs four solves, so shooting
/// dominates. A change that trades one of those costs for another moves
/// one class against the others.
pub const SWEEP_SHAPES: [(usize, usize); 3] = [(2, 6), (1, 12), (4, 3)];

/// Names of [`SWEEP_SHAPES`].
pub const SWEEP_SHAPE_NAMES: [&str; 3] = ["grid_2x6", "grid_1x12", "grid_4x3"];

/// One campaign grid: supply corners × σ-scale levels.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepGrid {
    /// Index into [`SWEEP_SHAPES`].
    pub shape: usize,
    /// Supply corners (V), distinct, within ±4% of nominal.
    pub vdd: Vec<f64>,
    /// σ-scale levels, distinct, in `[0.5, 2.0)`.
    pub sigma: Vec<f64>,
}

/// The `sigma-sweep` grids: one fresh seeded grid per campaign run, the
/// shapes in seed-shuffled round-robin rounds.
pub struct SweepGrids {
    rng: Rng,
    shapes: Rounds,
}

impl SweepGrids {
    /// The grid stream for `seed`.
    pub fn new(seed: u64) -> Self {
        SweepGrids {
            rng: Rng::new(seed, 2),
            shapes: Rounds::new(seed, 4, SWEEP_SHAPES.len()),
        }
    }
}

impl Iterator for SweepGrids {
    type Item = SweepGrid;
    fn next(&mut self) -> Option<SweepGrid> {
        let shape = self.shapes.next()?;
        let (corners, levels) = SWEEP_SHAPES[shape];
        let r = &mut self.rng;
        // One value per disjoint bin, so corners (and levels) never
        // coincide: corners split [-4%, +4%], levels split [0.5, 2.0).
        let vdd = (0..corners)
            .map(|k| {
                let at = (k as f64 + 0.05 + 0.9 * r.unit()) / corners as f64;
                VDD_NOMINAL * (1.0 + 0.04 * (2.0 * at - 1.0))
            })
            .collect();
        let sigma = (0..levels)
            .map(|k| 0.5 + 1.5 * (k as f64 + r.unit()) / levels as f64)
            .collect();
        Some(SweepGrid { shape, vdd, sigma })
    }
}

// ── serve-mix ──

/// The raw-deck circuits the serving mix posts, by index.
pub const SERVE_DECKS: [&str; 2] = ["strongarm", "logic_path"];

/// Seeded value edits per served deck: `(card text, [replacements])`. Each
/// replacement is a small, physically harmless change of one element
/// value; variant 0 is the golden deck itself.
pub const DECK_EDITS: [(&str, [&str; 3]); 2] = [
    (
        "CINT vos 0 1p",
        ["CINT vos 0 1p", "CINT vos 0 1.01p", "CINT vos 0 0.99p"],
    ),
    (
        "CA nandA.out 0 5f",
        [
            "CA nandA.out 0 5f",
            "CA nandA.out 0 5.1f",
            "CA nandA.out 0 4.9f",
        ],
    ),
];

/// The `.sweep sigma` card some served decks carry.
pub const SWEEP_CARD: &str = ".sweep sigma 1.0 1.5 2.0";

/// Divider `R1` values (Ω) the JSON requests override to.
pub const DIVIDER_R1: [f64; 3] = [1000.0, 1010.0, 990.0];

/// What one generated request body asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BodyKind {
    /// A raw SPICE deck (`text/x-spice`).
    Spice {
        /// Index into [`SERVE_DECKS`].
        deck: usize,
        /// Index into the deck's [`DECK_EDITS`] replacements.
        variant: usize,
        /// Carries [`SWEEP_CARD`].
        sweep: bool,
    },
    /// A JSON request on the built-in `divider` deck.
    Divider {
        /// Index into [`DIVIDER_R1`].
        variant: usize,
        /// Adds σ-scaled scenarios sharing the solve.
        sweep: bool,
    },
}

/// One distinct request body.
#[derive(Clone, Debug)]
pub struct Body {
    /// What the body asks for (selects its oracle).
    pub kind: BodyKind,
    /// The exact bytes posted.
    pub text: String,
}

impl Body {
    /// The body's `Content-Type`.
    pub fn content_type(&self) -> &'static str {
        match self.kind {
            BodyKind::Spice { .. } => "text/x-spice",
            BodyKind::Divider { .. } => "application/json",
        }
    }
}

/// One block of the request mix as `(slot, count)`, shuffled per block by
/// the seed: every 20 requests hold exactly 6 verbatim repeats of a recent
/// body (cache hits) and 14 fresh bodies — StrongARM and logic-path decks
/// with and without a `.sweep sigma` card, and one JSON divider request.
const MIX_BLOCK: [(Slot, usize); 6] = [
    (Slot::Repeat, 6),
    (Slot::Deck(0, false), 5),
    (Slot::Deck(1, false), 5),
    (Slot::Deck(0, true), 1),
    (Slot::Deck(1, true), 2),
    (Slot::Divider, 1),
];

/// One request slot of [`MIX_BLOCK`].
#[derive(Clone, Copy, Debug)]
enum Slot {
    /// Repeat a recent body verbatim.
    Repeat,
    /// A fresh deck: index into [`SERVE_DECKS`], and whether it sweeps σ.
    Deck(usize, bool),
    /// A JSON divider request.
    Divider,
}

/// Repeats pick from this many most recent distinct bodies, all of which
/// stay resident in the daemon's solve cache.
const REPEAT_WINDOW: usize = 8;

/// The serving mix: distinct bodies plus the request sequence of each
/// phase (indices into `bodies`) and the open-loop arrival offsets.
#[derive(Clone, Debug)]
pub struct ServePlan {
    /// Every distinct body, in first-use order.
    pub bodies: Vec<Body>,
    /// Per phase: the body index of each request, in send order.
    pub phases: Vec<Vec<usize>>,
    /// Per open-loop phase: due offset (s) of each request from phase
    /// start; empty for the closed-loop phase.
    pub arrivals: Vec<Vec<f64>>,
}

/// Renders a served deck: the golden text with one value edit, an
/// optional sweep card, and a request tag comment that makes the text
/// (and so its content-addressed cache identity) unique.
pub fn spice_text(golden: &str, deck: usize, variant: usize, sweep: bool, tag: u64) -> String {
    let (card, edits) = DECK_EDITS[deck];
    assert!(golden.contains(card), "golden deck lost its `{card}` card");
    let mut text = golden.replacen(card, edits[variant], 1);
    let end = text.rfind(".end").expect("golden deck ends with .end");
    let mut tail = format!("* request {tag:016x}\n");
    if sweep {
        tail = format!("{SWEEP_CARD}\n{tail}");
    }
    text.insert_str(end, &tail);
    text
}

/// Renders a divider JSON request.
pub fn divider_text(variant: usize, sweep: bool) -> String {
    let r1 = DIVIDER_R1[variant];
    let ov = format!(r#"{{"kind":"resistance","device":"R1","ohms":{r1:?}}}"#);
    let mut scenarios = vec![format!(r#"{{"name":"nominal","overrides":[{ov}]}}"#)];
    if sweep {
        for s in [1.5, 2.0] {
            scenarios.push(format!(
                r#"{{"name":"sigma={s:?}","overrides":[{ov},{{"kind":"sigma-scale","factor":{s:?}}}]}}"#
            ));
        }
    }
    format!(
        r#"{{"deck":"divider","period":1e-6,"n_steps":64,"metrics":[{{"name":"vout","kind":"dc-average","node":"b"}}],"scenarios":[{}]}}"#,
        scenarios.join(",")
    )
}

impl ServePlan {
    /// Generates the plan for `seed`: open-loop phases at `rates` (req/s)
    /// lasting `durations` seconds each, then `closed_len` closed-loop
    /// requests. `goldens` holds the [`SERVE_DECKS`] texts.
    pub fn new(
        seed: u64,
        goldens: &[&str; 2],
        rates: &[f64],
        durations: &[f64],
        closed_len: usize,
    ) -> Self {
        let mut rng = Rng::new(seed, 3);
        let mut plan = ServePlan {
            bodies: Vec::new(),
            phases: Vec::new(),
            arrivals: Vec::new(),
        };
        let mut recent: Vec<usize> = Vec::new();
        let block: Vec<Slot> = MIX_BLOCK
            .iter()
            .flat_map(|&(slot, n)| std::iter::repeat_n(slot, n))
            .collect();
        let mut bag: Vec<Slot> = Vec::new();
        let mut next_request = |rng: &mut Rng, plan: &mut ServePlan| -> usize {
            if bag.is_empty() {
                bag = rng
                    .permutation(block.len())
                    .into_iter()
                    .map(|i| block[i])
                    .collect();
            }
            let kind = match bag.pop().expect("bag refilled above") {
                Slot::Repeat if !recent.is_empty() => return recent[rng.below(recent.len())],
                // The very first request has nothing to repeat yet.
                Slot::Repeat => BodyKind::Spice {
                    deck: 0,
                    variant: 0,
                    sweep: false,
                },
                Slot::Deck(deck, sweep) => BodyKind::Spice {
                    deck,
                    variant: rng.below(DECK_EDITS[deck].1.len()),
                    sweep,
                },
                Slot::Divider => BodyKind::Divider {
                    variant: rng.below(DIVIDER_R1.len()),
                    sweep: rng.below(2) == 1,
                },
            };
            let text = match kind {
                BodyKind::Spice {
                    deck,
                    variant,
                    sweep,
                } => spice_text(goldens[deck], deck, variant, sweep, rng.next_u64()),
                BodyKind::Divider { variant, sweep } => divider_text(variant, sweep),
            };
            // A divider body can recur by value; reuse its index so every
            // distinct text has one oracle.
            let id = match plan.bodies.iter().position(|b| b.text == text) {
                Some(i) => i,
                None => {
                    plan.bodies.push(Body { kind, text });
                    plan.bodies.len() - 1
                }
            };
            if !recent.contains(&id) {
                recent.push(id);
                if recent.len() > REPEAT_WINDOW {
                    recent.remove(0);
                }
            }
            id
        };
        for (&rate, &dur) in rates.iter().zip(durations) {
            let mut t = rng.exp(1.0 / rate);
            let mut due = Vec::new();
            let mut reqs = Vec::new();
            while t < dur {
                due.push(t);
                reqs.push(next_request(&mut rng, &mut plan));
                t += rng.exp(1.0 / rate);
            }
            plan.arrivals.push(due);
            plan.phases.push(reqs);
        }
        let closed = (0..closed_len)
            .map(|_| next_request(&mut rng, &mut plan))
            .collect();
        plan.phases.push(closed);
        plan.arrivals.push(Vec::new());
        plan
    }

    /// Fingerprint of every body byte, request index and arrival time.
    pub fn digest(&self) -> Digest {
        let mut d = Digest::default();
        for b in &self.bodies {
            d.bytes(b.text.as_bytes());
        }
        for (reqs, due) in self.phases.iter().zip(&self.arrivals) {
            for &r in reqs {
                d.bytes(&(r as u64).to_le_bytes());
            }
            for &t in due {
                d.num(t);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOLDENS: [&str; 2] = [
        include_str!("../decks/strongarm.sp"),
        include_str!("../decks/logic_path.sp"),
    ];

    fn plan(seed: u64) -> ServePlan {
        ServePlan::new(seed, &GOLDENS, &[5.0, 20.0], &[2.0, 3.0], 50)
    }

    fn inputs_digest(seed: u64) -> String {
        let mut d = plan(seed).digest();
        for c in table2_order(seed).take(300) {
            d.bytes(&[c as u8]);
        }
        for g in SweepGrids::new(seed).take(50) {
            d.bytes(&[g.shape as u8]);
            for x in g.vdd.iter().chain(&g.sigma) {
                d.num(*x);
            }
        }
        d.hex()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let (a, b) = (plan(7), plan(7));
        assert_eq!(a.bodies.len(), b.bodies.len());
        for (x, y) in a.bodies.iter().zip(&b.bodies) {
            assert_eq!(x.text.as_bytes(), y.text.as_bytes());
        }
        assert_eq!(a.phases, b.phases);
        let bits = |p: &ServePlan| -> Vec<Vec<u64>> {
            p.arrivals
                .iter()
                .map(|v| v.iter().map(|t| t.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(
            table2_order(7).take(60).collect::<Vec<_>>(),
            table2_order(7).take(60).collect::<Vec<_>>()
        );
        assert_eq!(
            SweepGrids::new(7).take(5).collect::<Vec<_>>(),
            SweepGrids::new(7).take(5).collect::<Vec<_>>()
        );
        assert_eq!(inputs_digest(7), inputs_digest(7));
    }

    #[test]
    fn another_seed_changes_the_inputs() {
        assert_ne!(inputs_digest(7), inputs_digest(8));
        assert_ne!(
            table2_order(7).take(60).collect::<Vec<_>>(),
            table2_order(8).take(60).collect::<Vec<_>>()
        );
        assert_ne!(SweepGrids::new(7).next(), SweepGrids::new(8).next());
        assert_ne!(plan(7).arrivals, plan(8).arrivals);
    }

    #[test]
    fn table2_rounds_cover_every_circuit() {
        let order: Vec<usize> = table2_order(3).take(30).collect();
        for round in order.chunks(3) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, [0, 1, 2]);
        }
    }

    #[test]
    fn sweep_grids_have_their_shape_and_distinct_values() {
        for g in SweepGrids::new(5).take(30) {
            let (corners, levels) = SWEEP_SHAPES[g.shape];
            assert_eq!((g.vdd.len(), g.sigma.len()), (corners, levels));
            assert_eq!(corners * levels, 12);
            for w in g.vdd.windows(2).chain(g.sigma.windows(2)) {
                assert!(w[0] < w[1], "{g:?}");
            }
            assert!(g.vdd.iter().all(|v| (v / VDD_NOMINAL - 1.0).abs() <= 0.04));
            assert!(g.sigma.iter().all(|s| (0.5..2.0).contains(s)));
        }
    }

    #[test]
    fn plan_mixes_repeats_sweeps_and_json() {
        let p = plan(11);
        let reqs: Vec<usize> = p.phases.concat();
        let distinct = p.bodies.len();
        assert!(distinct < reqs.len(), "some requests must repeat a body");
        assert!(p.bodies.iter().any(|b| b.text.contains(SWEEP_CARD)));
        assert!(p
            .bodies
            .iter()
            .any(|b| matches!(b.kind, BodyKind::Divider { .. })));
        for b in &p.bodies {
            if let BodyKind::Spice { deck, variant, .. } = b.kind {
                assert!(b.text.contains(DECK_EDITS[deck].1[variant]));
            }
        }
    }
}
