//! Per-layer measurements, taken from outside the program in two ways:
//! differences in the server's metrics registry across a timed phase, and
//! the benchmark's own `haqjsk_obs` spans around in-process calls into each
//! layer's public functions on the workload's inputs.

use crate::inputs::Workload;
use haqjsk::core::{AlignedGraph, HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk::engine::serve::graph_from_json;
use haqjsk::engine::{Engine, FeatureCache, Json};
use haqjsk::graph::Graph;
use haqjsk::quantum::qjsd;
use std::collections::BTreeMap;
use std::hint::black_box;

/// One per-layer figure: name, value, unit.
pub type Row = (&'static str, f64, &'static str);

/// One `metrics` scrape: every registry entry by name and labels, with its
/// value (counters, gauges) or count and sum (histograms).
pub struct Scrape(BTreeMap<String, (f64, f64)>);

fn entry_key(name: &str, labels: &Json) -> String {
    format!("{name}{labels}")
}

fn op_labels(op: &str) -> Json {
    Json::obj([("op", Json::Str(op.to_string()))])
}

impl Scrape {
    /// Parses the reply of a `metrics` request.
    pub fn parse(reply: &Json) -> Result<Scrape, String> {
        let entries = reply
            .get("metrics")
            .and_then(Json::as_array)
            .ok_or("metrics reply without a 'metrics' array")?;
        let mut map = BTreeMap::new();
        for entry in entries {
            let name = entry.get("name").and_then(Json::as_str).unwrap_or("");
            let labels = entry.get("labels").cloned().unwrap_or(Json::obj([]));
            let num = |key: &str| entry.get(key).and_then(Json::as_f64);
            let value = num("value").or(num("count")).unwrap_or(0.0);
            map.insert(entry_key(name, &labels), (value, num("sum").unwrap_or(0.0)));
        }
        Ok(Scrape(map))
    }

    fn get(&self, name: &str, labels: &Json) -> (f64, f64) {
        self.0
            .get(&entry_key(name, labels))
            .copied()
            .unwrap_or((0.0, 0.0))
    }

    /// Sum of every series of counter family `name`.
    fn family(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(name)
                    .is_some_and(|rest| rest.starts_with('{'))
            })
            .map(|(_, (v, _))| v)
            .sum()
    }
}

/// What changed in the registry between two scrapes.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    /// Increase of a counter (or of a histogram's count).
    pub fn count(&self, name: &str, labels: &Json) -> f64 {
        self.after.get(name, labels).0 - self.before.get(name, labels).0
    }

    /// Mean of the histogram observations made in between (0 if none).
    pub fn mean(&self, name: &str, labels: &Json) -> f64 {
        let (c1, s1) = self.after.get(name, labels);
        let (c0, s0) = self.before.get(name, labels);
        if c1 > c0 {
            (s1 - s0) / (c1 - c0)
        } else {
            0.0
        }
    }

    /// Increase of a counter family over all its label sets.
    pub fn family(&self, name: &str) -> f64 {
        self.after.family(name) - self.before.family(name)
    }

    /// Mean server-side time of `op` requests, in milliseconds.
    pub fn server_ms(&self, op: &str) -> f64 {
        self.mean("haqjsk_serve_request_seconds", &op_labels(op)) * 1e3
    }

    /// Number of `op` requests served.
    pub fn served(&self, op: &str) -> f64 {
        self.count("haqjsk_serve_request_seconds", &op_labels(op))
    }

    /// The registry-derived per-layer metrics of one phase (the per-op
    /// server times are added by the caller, which knows the client side).
    pub fn layer_metrics(&self) -> Vec<Row> {
        let none = Json::obj([]);
        vec![
            (
                "linalg.batch.matrices",
                self.count("haqjsk_eigen_batched_matrices_total", &none),
                "count",
            ),
            (
                "linalg.batch.scalar_fallbacks",
                self.count("haqjsk_eigen_scalar_fallbacks_total", &none),
                "count",
            ),
            (
                "linalg.batch.mean_lanes",
                self.mean("haqjsk_eigen_batch_lanes", &none),
                "lanes",
            ),
            (
                "engine.pool.jobs",
                self.count("haqjsk_pool_jobs_total", &none),
                "count",
            ),
            (
                "engine.gram.tile_eval_ms",
                self.mean("haqjsk_tile_eval_seconds", &none) * 1e3,
                "ms",
            ),
            (
                "serving.rejected",
                self.family("haqjsk_serve_rejected_total")
                    + self.family("haqjsk_serve_deadline_exceeded_total"),
                "count",
            ),
        ]
    }
}

// ---------------------------------------------------------------------------
// In-process layer timing
// ---------------------------------------------------------------------------

/// Self time per unit of work of each benchmark span name, from drained
/// span records: a span's duration minus what its child spans cover.
fn self_times(jsonl: &str, units: &BTreeMap<&'static str, f64>) -> BTreeMap<String, f64> {
    let records: Vec<Json> = jsonl
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .collect();
    let field = |r: &Json, key: &str| r.get(key).and_then(Json::as_str).map(str::to_string);
    let mut children_us: BTreeMap<String, f64> = BTreeMap::new();
    for r in &records {
        if let Some(parent) = field(r, "parent") {
            *children_us.entry(parent).or_default() +=
                r.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0);
        }
    }
    let mut totals: BTreeMap<String, f64> = BTreeMap::new();
    for r in &records {
        let (Some(name), Some(id)) = (field(r, "name"), field(r, "span")) else {
            continue;
        };
        let dur = r.get("dur_us").and_then(Json::as_f64).unwrap_or(0.0);
        let own = (dur - children_us.get(&id).copied().unwrap_or(0.0)).max(0.0);
        *totals.entry(name).or_default() += own;
    }
    totals
        .into_iter()
        .filter_map(|(name, us)| units.get(name.as_str()).map(|u| (name, us / u)))
        .collect()
}

/// The workload's inputs, shaped for the in-process layer calls.
pub struct LayerInputs<'w> {
    pub workload: &'w Workload,
    /// Variant the served model uses.
    pub variant: HaqjskVariant,
    /// Request frames whose decoding is timed.
    pub frames: Vec<&'w str>,
    /// Pool indices of graphs transformed cold.
    pub queries: Vec<usize>,
    /// The served set at the end of the sequence (training plus appended
    /// graphs), whose features every read re-looks-up.
    pub served: Vec<usize>,
}

/// Times each layer's public entry point under a benchmark span and returns
/// `(metric, value, unit)` rows plus the drained span records.
pub fn in_process(inputs: &LayerInputs) -> Result<(Vec<Row>, String), String> {
    let w = inputs.workload;
    let train = w.train_graphs();
    let linalg = |e| format!("{e:?}");
    let mut units: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spans = String::new();
    let drain = |spans: &mut String| spans.push_str(&haqjsk::obs::drain_trace_jsonl().jsonl);
    // Start from empty rings: only the spans below are this run's layers.
    haqjsk::obs::drain_trace_jsonl();

    // Decode: JSON parse plus graph reconstruction, per frame.
    for frame in &inputs.frames {
        let _span = haqjsk::obs::span("engine.json.decode");
        let request = Json::parse(frame).map_err(|e| e.to_string())?;
        let graphs: Vec<&Json> = match request.get("graphs").and_then(Json::as_array) {
            Some(all) => all.iter().collect(),
            None => request.get("graph").into_iter().collect(),
        };
        for g in graphs {
            black_box(graph_from_json(g)?);
        }
    }
    units.insert("engine.json.decode", inputs.frames.len() as f64);

    // Hierarchy: the prototype fit.
    const FITS: usize = 2;
    let mut model = None;
    for _ in 0..FITS {
        let _span = haqjsk::obs::span("core.hierarchy.fit");
        model =
            Some(HaqjskModel::fit(&train, HaqjskConfig::small(), inputs.variant).map_err(linalg)?);
    }
    let model = model.expect("at least one fit");
    units.insert("core.hierarchy.fit", FITS as f64);

    // Cold transforms of query graphs.
    for &q in &inputs.queries {
        let _span = haqjsk::obs::span("core.model.transform_cold");
        black_box(model.transform(&w.pool[q]).map_err(linalg)?);
    }
    units.insert("core.model.transform_cold", inputs.queries.len() as f64);
    drain(&mut spans);

    // Re-looking-up the served set's features, every lookup a hit.
    let cache: FeatureCache<AlignedGraph> = FeatureCache::new();
    let served: Vec<Graph> = inputs.served.iter().map(|&i| w.pool[i].clone()).collect();
    let aligned = model
        .transform_all_cached(&served, &cache)
        .map_err(linalg)?;
    const LOOKUPS: usize = 10;
    for _ in 0..LOOKUPS {
        let _span = haqjsk::obs::span("core.model.train_lookup");
        black_box(
            model
                .transform_all_cached(&served, &cache)
                .map_err(linalg)?,
        );
    }
    units.insert("core.model.train_lookup", LOOKUPS as f64);

    // The pair kernel and the QJSD under it, serially on this thread.
    let pairs: Vec<(usize, usize)> = (0..aligned.len())
        .flat_map(|i| (i..aligned.len()).map(move |j| (i, j)))
        .take(1500)
        .collect();
    let mut kernel_sum = 0.0;
    {
        let _span = haqjsk::obs::span("core.model.kernel");
        for &(i, j) in &pairs {
            kernel_sum += model.kernel(&aligned[i], &aligned[j]);
        }
    }
    black_box(kernel_sum);
    units.insert("core.model.kernel", pairs.len() as f64);
    let mut calls = 0usize;
    {
        let _span = haqjsk::obs::span("quantum.qjsd");
        for &(i, j) in &pairs {
            let (a, b) = (
                aligned[i].densities(inputs.variant),
                aligned[j].densities(inputs.variant),
            );
            for (x, y) in a.iter().zip(b) {
                black_box(qjsd(x, y).map_err(linalg)?);
                calls += 1;
            }
        }
    }
    units.insert("quantum.qjsd", calls as f64);
    drain(&mut spans);

    // The Gram over the training set from warm features, then one append's
    // incremental extension.
    const BUILDS: usize = 2;
    let mut gram = None;
    for _ in 0..BUILDS {
        let _span = haqjsk::obs::span("engine.gram.build");
        gram = Some(model.gram_matrix_cached(&train, &cache).map_err(linalg)?);
    }
    let gram = gram.expect("at least one build");
    units.insert("engine.gram.build", BUILDS as f64);
    for &q in &inputs.queries {
        let mut grown = train.clone();
        grown.push(w.pool[q].clone());
        // The new graph's features are computed before timing, as the
        // served `append` finds them in the cache after its own transform.
        model
            .transform_all_cached(&grown[train.len()..], &cache)
            .map_err(linalg)?;
        let _span = haqjsk::obs::span("engine.gram.extend");
        black_box(
            model
                .gram_matrix_extended(&gram, &grown, &cache)
                .map_err(linalg)?,
        );
    }
    units.insert("engine.gram.extend", inputs.queries.len() as f64);

    // Encode: rendering a kernel-row response over the served set.
    const ENCODES: usize = 50;
    let row: Vec<f64> = aligned
        .iter()
        .map(|t| model.kernel(&aligned[0], t))
        .collect();
    for _ in 0..ENCODES {
        let _span = haqjsk::obs::span("engine.json.encode");
        let response = Json::obj([
            ("ok", Json::Bool(true)),
            (
                "values",
                Json::Arr(row.iter().map(|&v| Json::Num(v)).collect()),
            ),
        ]);
        black_box(response.to_string());
    }
    units.insert("engine.json.encode", ENCODES as f64);
    drain(&mut spans);

    let per_unit = self_times(&spans, &units);
    let at = |name: &str| per_unit.get(name).copied().unwrap_or(0.0);
    let n = train.len() as f64;
    let gram_pairs = n * (n + 1.0) / 2.0;
    let efficiency = gram_pairs * at("core.model.kernel")
        / (Engine::global().threads() as f64 * at("engine.gram.build"));
    let rows = vec![
        (
            "engine.json.decode_ms",
            at("engine.json.decode") / 1e3,
            "ms",
        ),
        (
            "engine.json.encode_ms",
            at("engine.json.encode") / 1e3,
            "ms",
        ),
        (
            "core.hierarchy.fit_ms",
            at("core.hierarchy.fit") / 1e3,
            "ms",
        ),
        (
            "core.model.transform_cold_ms",
            at("core.model.transform_cold") / 1e3,
            "ms",
        ),
        (
            "core.model.train_lookup_ms",
            at("core.model.train_lookup") / 1e3,
            "ms",
        ),
        (
            "core.model.kernel_us_per_pair",
            at("core.model.kernel"),
            "us",
        ),
        ("quantum.qjsd.us_per_call", at("quantum.qjsd"), "us"),
        ("engine.gram.build_ms", at("engine.gram.build") / 1e3, "ms"),
        ("engine.gram.parallel_efficiency", efficiency, "ratio"),
        (
            "engine.gram.extend_ms",
            at("engine.gram.extend") / 1e3,
            "ms",
        ),
    ];
    Ok((rows, spans))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let jsonl = "\
{\"name\":\"outer\",\"trace\":\"t\",\"span\":\"a\",\"start_us\":0,\"dur_us\":100,\"thread\":0}
{\"name\":\"inner\",\"trace\":\"t\",\"span\":\"b\",\"parent\":\"a\",\"start_us\":10,\"dur_us\":30,\"thread\":0}
{\"name\":\"inner\",\"trace\":\"t\",\"span\":\"c\",\"parent\":\"a\",\"start_us\":50,\"dur_us\":20,\"thread\":0}
{\"name\":\"other\",\"trace\":\"u\",\"span\":\"d\",\"start_us\":0,\"dur_us\":7,\"thread\":1}
";
        let units = BTreeMap::from([("outer", 1.0), ("inner", 2.0)]);
        let t = self_times(jsonl, &units);
        assert_eq!(t.get("outer"), Some(&50.0));
        assert_eq!(t.get("inner"), Some(&25.0));
        assert_eq!(t.get("other"), None, "only named layers are reported");
    }

    #[test]
    fn deltas_between_scrapes() {
        let scrape = |fit_count: f64, fit_sum: f64, jobs: f64, shed: f64| {
            let reply = Json::obj([(
                "metrics",
                Json::Arr(vec![
                    Json::obj([
                        ("name", Json::Str("haqjsk_serve_request_seconds".into())),
                        ("labels", op_labels("fit")),
                        ("count", Json::Num(fit_count)),
                        ("sum", Json::Num(fit_sum)),
                    ]),
                    Json::obj([
                        ("name", Json::Str("haqjsk_pool_jobs_total".into())),
                        ("labels", Json::obj([])),
                        ("value", Json::Num(jobs)),
                    ]),
                    Json::obj([
                        ("name", Json::Str("haqjsk_serve_rejected_total".into())),
                        ("labels", op_labels("append")),
                        ("value", Json::Num(shed)),
                    ]),
                ]),
            )]);
            Scrape::parse(&reply).expect("well-formed")
        };
        let (before, after) = (scrape(2.0, 0.5, 10.0, 1.0), scrape(6.0, 1.3, 25.0, 4.0));
        let d = Delta {
            before: &before,
            after: &after,
        };
        assert_eq!(d.served("fit"), 4.0);
        assert!((d.server_ms("fit") - 200.0).abs() < 1e-9);
        assert_eq!(d.served("append"), 0.0);
        assert_eq!(d.server_ms("append"), 0.0);
        let rows = d.layer_metrics();
        let get = |name: &str| rows.iter().find(|r| r.0 == name).map(|r| r.1);
        assert_eq!(get("engine.pool.jobs"), Some(15.0));
        assert_eq!(get("serving.rejected"), Some(3.0));
    }
}
