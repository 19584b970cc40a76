//! Seeded workload inputs: graphs, the operation sequence and every
//! request frame, all built before anything is timed.
//!
//! Graph sizes are spread evenly over their range and only shuffled by the
//! seed, so the amount of work in a run barely depends on the seed; the
//! seed picks the graphs' structure and the order of operations.

use haqjsk::core::HaqjskVariant;
use haqjsk::engine::serve::graph_to_json;
use haqjsk::engine::Json;
use haqjsk::graph::generators::barabasi_albert;
use haqjsk::graph::Graph;

/// The benchmark's workloads, by name.
pub const WORKLOADS: [&str; 3] = ["fit_gram", "serve_mixed", "transform_large"];

/// splitmix64: a small, well-mixed generator for seeded inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and input `stream`, so independent inputs
    /// of one workload do not share draws.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// `count` sizes spread evenly over `lo..=hi`, in seeded order.
fn spread_sizes(rng: &mut Rng, count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut sizes: Vec<usize> = (0..count).map(|i| lo + i * (hi - lo + 1) / count).collect();
    rng.shuffle(&mut sizes);
    sizes
}

/// Barabási–Albert graphs with the given sizes and `m` edges per new node.
fn ba_graphs(rng: &mut Rng, sizes: &[usize], m: usize) -> Vec<Graph> {
    sizes
        .iter()
        .map(|&n| barabasi_albert(n, m, rng.next_u64()))
        .collect()
}

/// A request type on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Fit,
    Transform,
    KernelRow,
    Predict,
    Append,
    Stats,
}

impl Kind {
    /// Every request type, in report order.
    pub const ALL: [Kind; 6] = [
        Kind::Fit,
        Kind::Transform,
        Kind::KernelRow,
        Kind::Predict,
        Kind::Append,
        Kind::Stats,
    ];

    /// The wire command (also the server's `op` metric label).
    pub fn cmd(self) -> &'static str {
        match self {
            Kind::Fit => "fit",
            Kind::Transform => "transform",
            Kind::KernelRow => "kernel_row",
            Kind::Predict => "predict",
            Kind::Append => "append",
            Kind::Stats => "stats",
        }
    }
}

/// One request: its type, the graph it carries (an index into
/// [`Workload::pool`]) and its encoded frame.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    /// Pool index of the carried graph (unused by `fit`).
    pub graph: usize,
    /// Variant of a `fit`.
    pub variant: HaqjskVariant,
    /// Label of an `append` to a labelled model.
    pub label: Option<usize>,
    /// The newline-terminated request line.
    pub frame: String,
}

/// Everything one workload sends.
pub struct Workload {
    pub name: &'static str,
    /// Every graph any request carries.
    pub pool: Vec<Graph>,
    /// The setup `fit` trains on the first `train` pool graphs.
    pub train: usize,
    /// Training labels, when the model serves `predict`.
    pub labels: Option<Vec<usize>>,
    /// Set-up requests: the initial `fit`, then one untimed warm-up per
    /// request type of the timed phase.
    pub setup: Vec<Op>,
    /// The timed closed-loop sequence (connection 1).
    pub timed: Vec<Op>,
    /// Request types whose latency is the workload's headline.
    pub headline: &'static [Kind],
    /// Rate of the open-loop `stats` probe on connection 2, per second,
    /// on the workload that has one.
    pub probe_hz: Option<f64>,
}

fn variant_code(variant: HaqjskVariant) -> &'static str {
    match variant {
        HaqjskVariant::AlignedAdjacency => "A",
        HaqjskVariant::AlignedDensity => "D",
    }
}

fn frame(pairs: Vec<(&'static str, Json)>) -> String {
    format!("{}\n", Json::obj(pairs))
}

/// A frame for one command with no further fields (`ping`, `stats`,
/// `metrics`, `save`, `trace_dump`).
pub fn bare_frame(cmd: &str) -> String {
    frame(vec![("cmd", Json::Str(cmd.to_string()))])
}

impl Workload {
    /// The `fit` request over the training set.
    fn fit_op(&self, variant: HaqjskVariant) -> Op {
        let graphs = self.pool[..self.train].iter().map(graph_to_json).collect();
        let mut pairs = vec![
            ("cmd", Json::Str("fit".to_string())),
            ("graphs", Json::Arr(graphs)),
            ("variant", Json::Str(variant_code(variant).to_string())),
        ];
        if let Some(labels) = &self.labels {
            let labels = labels.iter().map(|&l| Json::Num(l as f64)).collect();
            pairs.push(("labels", Json::Arr(labels)));
        }
        Op {
            kind: Kind::Fit,
            graph: 0,
            variant,
            label: None,
            frame: frame(pairs),
        }
    }

    /// A single-graph request carrying pool graph `graph`.
    pub fn graph_op(&self, kind: Kind, graph: usize, label: Option<usize>) -> Op {
        let mut pairs = vec![
            ("cmd", Json::Str(kind.cmd().to_string())),
            ("graph", graph_to_json(&self.pool[graph])),
        ];
        if let Some(label) = label {
            pairs.push(("label", Json::Num(label as f64)));
        }
        Op {
            kind,
            graph,
            variant: HaqjskVariant::AlignedAdjacency,
            label,
            frame: frame(pairs),
        }
    }

    /// Builds workload `name` for `seed` with `ops` timed operations on
    /// connection 1.
    pub fn build(name: &str, seed: u64, ops: usize) -> Result<Workload, String> {
        match name {
            "fit_gram" => Ok(Workload::fit_gram(seed, ops)),
            "serve_mixed" => Ok(Workload::serve_mixed(seed, ops)),
            "transform_large" => Ok(Workload::transform_large(seed, ops)),
            other => Err(format!(
                "unknown workload '{other}' (expected one of {WORKLOADS:?})"
            )),
        }
    }

    /// Repeated `fit`s over one fixed set of 96 small graphs, alternating
    /// HAQJSK(A) and HAQJSK(D).
    fn fit_gram(seed: u64, ops: usize) -> Workload {
        let mut rng = Rng::new(seed, 1);
        let sizes = spread_sizes(&mut rng, 96, 12, 28);
        let pool = ba_graphs(&mut rng, &sizes, 2);
        let mut w = Workload {
            name: "fit_gram",
            train: pool.len(),
            pool,
            labels: None,
            setup: Vec::new(),
            timed: Vec::new(),
            headline: &[Kind::Fit],
            probe_hz: None,
        };
        let fit_a = w.fit_op(HaqjskVariant::AlignedAdjacency);
        let fit_d = w.fit_op(HaqjskVariant::AlignedDensity);
        w.timed = (0..ops)
            .map(|i| if i % 2 == 0 { &fit_a } else { &fit_d }.clone())
            .collect();
        w.setup = vec![fit_a];
        w
    }

    /// A labelled model over 128 small graphs, then a seeded 60/20/20 mix
    /// of `kernel_row`, `predict` and `append`; a quarter of the reads
    /// repeat an earlier query graph.
    fn serve_mixed(seed: u64, ops: usize) -> Workload {
        const TRAIN: usize = 128;
        const CLASSES: usize = 3;
        let mut rng = Rng::new(seed, 2);
        // The op mix: 60% kernel_row, 20% predict, 20% append.
        let mut kinds: Vec<Kind> = (0..ops)
            .map(|i| match i % 5 {
                0..=2 => Kind::KernelRow,
                3 => Kind::Predict,
                _ => Kind::Append,
            })
            .collect();
        rng.shuffle(&mut kinds);
        let appends = kinds.iter().filter(|&&k| k == Kind::Append).count();
        let reads = ops - appends;
        let repeats = reads / 4;
        // Training set, the warm-up graphs (3), fresh read queries and
        // appended graphs, in that order in the pool.
        let fresh = TRAIN + 3 + (reads - repeats) + appends;
        let sizes = spread_sizes(&mut rng, fresh, 12, 28);
        let pool = ba_graphs(&mut rng, &sizes, 2);
        let labels = (0..TRAIN).map(|_| rng.below(CLASSES)).collect();
        let mut w = Workload {
            name: "serve_mixed",
            train: TRAIN,
            pool,
            labels: Some(labels),
            setup: Vec::new(),
            timed: Vec::new(),
            headline: &[Kind::KernelRow, Kind::Predict],
            probe_hz: Some(25.0),
        };
        w.setup = vec![
            w.fit_op(HaqjskVariant::AlignedAdjacency),
            w.graph_op(Kind::KernelRow, TRAIN, None),
            w.graph_op(Kind::Predict, TRAIN + 1, None),
            w.graph_op(Kind::Append, TRAIN + 2, Some(rng.below(CLASSES))),
        ];
        // Which reads repeat an earlier query: a fixed count, seeded slots
        // (never the first read, which has nothing to repeat).
        let mut repeat_slot = vec![false; reads];
        let mut slots: Vec<usize> = (1..reads).collect();
        rng.shuffle(&mut slots);
        for &s in slots.iter().take(repeats) {
            repeat_slot[s] = true;
        }
        let mut next_fresh = TRAIN + 3;
        let mut queried: Vec<usize> = Vec::new();
        let mut read = 0;
        for kind in kinds {
            let op = if kind == Kind::Append {
                let graph = next_fresh;
                next_fresh += 1;
                w.graph_op(kind, graph, Some(rng.below(CLASSES)))
            } else {
                let graph = if repeat_slot[read] {
                    queried[rng.below(queried.len())]
                } else {
                    next_fresh += 1;
                    next_fresh - 1
                };
                read += 1;
                queried.push(graph);
                w.graph_op(kind, graph, None)
            };
            w.timed.push(op);
        }
        debug_assert_eq!(next_fresh, w.pool.len());
        w
    }

    /// A model fitted on 64 small graphs, then `transform`s of new
    /// 100–200 node graphs, each a cache miss.
    fn transform_large(seed: u64, ops: usize) -> Workload {
        const TRAIN: usize = 64;
        let mut rng = Rng::new(seed, 3);
        let small = spread_sizes(&mut rng, TRAIN, 12, 28);
        let mut pool = ba_graphs(&mut rng, &small, 2);
        // The warm-up graph, then the timed ones.
        let mut large = spread_sizes(&mut rng, ops, 100, 200);
        large.insert(0, 150);
        pool.extend(ba_graphs(&mut rng, &large, 3));
        let mut w = Workload {
            name: "transform_large",
            train: TRAIN,
            pool,
            labels: None,
            setup: Vec::new(),
            timed: Vec::new(),
            headline: &[Kind::Transform],
            probe_hz: None,
        };
        w.setup = vec![
            w.fit_op(HaqjskVariant::AlignedAdjacency),
            w.graph_op(Kind::Transform, TRAIN, None),
        ];
        w.timed = (0..ops)
            .map(|i| w.graph_op(Kind::Transform, TRAIN + 1 + i, None))
            .collect();
        w
    }

    /// The training graphs, in order.
    pub fn train_graphs(&self) -> Vec<Graph> {
        self.pool[..self.train].to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_frames() {
        for name in WORKLOADS {
            let a = Workload::build(name, 7, 20).expect("known workload");
            let b = Workload::build(name, 7, 20).expect("known workload");
            let c = Workload::build(name, 8, 20).expect("known workload");
            let frames = |w: &Workload| -> Vec<String> {
                w.setup
                    .iter()
                    .chain(&w.timed)
                    .map(|o| o.frame.clone())
                    .collect()
            };
            assert_eq!(frames(&a), frames(&b), "{name}");
            assert_ne!(frames(&a), frames(&c), "{name}");
            assert_eq!(a.timed.len(), 20, "{name}");
        }
    }

    #[test]
    fn serve_mixed_has_the_stated_mix_and_repeats() {
        let w = Workload::build("serve_mixed", 3, 500).expect("known workload");
        let count = |k: Kind| w.timed.iter().filter(|o| o.kind == k).count();
        assert_eq!(count(Kind::KernelRow), 300);
        assert_eq!(count(Kind::Predict), 100);
        assert_eq!(count(Kind::Append), 100);
        let reads: Vec<usize> = w
            .timed
            .iter()
            .filter(|o| o.kind != Kind::Append)
            .map(|o| o.graph)
            .collect();
        let distinct: std::collections::BTreeSet<_> = reads.iter().collect();
        assert_eq!(
            reads.len() - distinct.len(),
            100,
            "a quarter of reads repeat"
        );
    }

    #[test]
    fn sizes_are_spread_evenly() {
        let mut rng = Rng::new(1, 0);
        let mut sizes = spread_sizes(&mut rng, 101, 100, 200);
        sizes.sort_unstable();
        assert_eq!(sizes.first(), Some(&100));
        assert_eq!(sizes.last(), Some(&200));
        assert_eq!(sizes.iter().sum::<usize>(), 101 * 150);
    }
}
