//! The correctness gate: an in-process replay of every request through the
//! library's public API, compared bit for bit with the served replies after
//! the timed phase.
//!
//! The reference fits the same graphs with the same configuration and
//! variant the server uses, replays the appends in order, and evaluates
//! rows, predictions and entropies the way `haqjsk::serving` does. The wire
//! prints every `f64` in a form that parses back to the same bits, so any
//! difference is a real one.

use crate::inputs::{Kind, Op, Workload};
use haqjsk::core::{AlignedGraph, HaqjskConfig, HaqjskModel, HaqjskVariant};
use haqjsk::engine::{Engine, FeatureCache, Json};
use haqjsk::graph::Graph;
use haqjsk::quantum::von_neumann_entropy;
use std::sync::Arc;

/// What the server should answer to one request.
#[derive(Debug, Clone)]
pub enum Expected {
    Fit {
        num_graphs: usize,
        levels: usize,
        max_layers: usize,
    },
    Row(Vec<f64>),
    Predict {
        label: usize,
        nearest: usize,
        value: f64,
    },
    Append {
        num_graphs: usize,
    },
    Entropies(Vec<f64>),
}

/// The served state the reference tracks: the current model, its feature
/// cache, the served graphs' aligned features and labels.
struct Served {
    model: HaqjskModel,
    cache: FeatureCache<AlignedGraph>,
    train: Vec<Arc<AlignedGraph>>,
    labels: Option<Vec<usize>>,
}

/// In-process replay of a workload's request sequence.
pub struct Reference<'w> {
    workload: &'w Workload,
    /// The models fitted so far, at most one per variant.
    models: Vec<HaqjskModel>,
    served: Option<Served>,
}

impl<'w> Reference<'w> {
    /// A reference with no model fitted yet.
    pub fn new(workload: &'w Workload) -> Reference<'w> {
        Reference {
            workload,
            models: Vec::new(),
            served: None,
        }
    }

    /// The model the server fits for `variant` (fitted once, then reused).
    fn model(&mut self, variant: HaqjskVariant) -> Result<HaqjskModel, String> {
        if let Some(model) = self.models.iter().find(|m| m.variant() == variant) {
            return Ok(model.clone());
        }
        let model = HaqjskModel::fit(
            &self.workload.train_graphs(),
            HaqjskConfig::small(),
            variant,
        )
        .map_err(|e| format!("reference fit failed: {e:?}"))?;
        self.models.push(model.clone());
        Ok(model)
    }

    /// The model currently served in the replay.
    pub fn current_model(&self) -> Option<&HaqjskModel> {
        self.served.as_ref().map(|s| &s.model)
    }

    fn aligned(served: &Served, graph: &Graph) -> Result<Arc<AlignedGraph>, String> {
        served
            .model
            .transform_all_cached(std::slice::from_ref(graph), &served.cache)
            .map(|mut v| v.remove(0))
            .map_err(|e| format!("reference transform failed: {e:?}"))
    }

    fn row(served: &Served, graph: &Graph) -> Result<Vec<f64>, String> {
        let query = Reference::aligned(served, graph)?;
        let train = &served.train;
        Ok(Engine::global().map(train.len(), |j| served.model.kernel(&query, &train[j])))
    }

    /// Applies one request to the replayed state and returns the answer
    /// the server should give.
    pub fn expect(&mut self, op: &Op) -> Result<Expected, String> {
        if op.kind == Kind::Fit {
            let model = self.model(op.variant)?;
            let graphs = self.workload.train_graphs();
            let cache = FeatureCache::new();
            let train = model
                .transform_all_cached(&graphs, &cache)
                .map_err(|e| format!("reference transform failed: {e:?}"))?;
            // Every other graph the sequence carries, transformed up front
            // in parallel: the replay then only looks features up.
            let rest = &self.workload.pool[self.workload.train..];
            model
                .transform_all_cached(rest, &cache)
                .map_err(|e| format!("reference transform failed: {e:?}"))?;
            let expected = Expected::Fit {
                num_graphs: graphs.len(),
                levels: model.hierarchy().num_levels(),
                max_layers: model.max_layers(),
            };
            self.served = Some(Served {
                model,
                cache,
                train,
                labels: self.workload.labels.clone(),
            });
            return Ok(expected);
        }
        let served = self.served.as_mut().ok_or("request before the first fit")?;
        let graph = &self.workload.pool[op.graph];
        match op.kind {
            Kind::KernelRow => Ok(Expected::Row(Reference::row(served, graph)?)),
            Kind::Predict => {
                let row = Reference::row(served, graph)?;
                let labels = served.labels.as_ref().ok_or("predict without labels")?;
                // The server's 1-NN rule: the last maximum under total order.
                let (nearest, value) = row
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .ok_or("empty training set")?;
                Ok(Expected::Predict {
                    label: labels[nearest],
                    nearest,
                    value: *value,
                })
            }
            Kind::Append => {
                let aligned = Reference::aligned(served, graph)?;
                served.train.push(aligned);
                if let (Some(labels), Some(label)) = (served.labels.as_mut(), op.label) {
                    labels.push(label);
                }
                Ok(Expected::Append {
                    num_graphs: served.train.len(),
                })
            }
            Kind::Transform => {
                let aligned = Reference::aligned(served, graph)?;
                Ok(Expected::Entropies(
                    aligned
                        .densities(served.model.variant())
                        .iter()
                        .map(von_neumann_entropy)
                        .collect(),
                ))
            }
            Kind::Fit | Kind::Stats => Err(format!("no reference for '{}'", op.kind.cmd())),
        }
    }
}

/// How one reply compares with its expectation.
#[derive(Debug, PartialEq)]
pub enum Verdict {
    Match,
    /// The server answered `ok: false` (an error, a shed or a deadline).
    Failed(String),
    /// The server answered, but not what the reference computed.
    Mismatch(String),
}

/// Parses a raw reply line and returns it when it is an `ok` answer.
pub fn ok_reply(line: &str) -> Result<Json, Verdict> {
    let reply = Json::parse(line).map_err(|e| Verdict::Mismatch(format!("bad JSON: {e}")))?;
    if reply.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(reply)
    } else {
        let error = reply
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("no error");
        Err(Verdict::Failed(error.to_string()))
    }
}

fn number(reply: &Json, key: &str) -> Option<f64> {
    reply.get(key).and_then(Json::as_f64)
}

fn same_bits(got: &[Json], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.as_f64().map(f64::to_bits) == Some(w.to_bits()))
}

/// Compares a raw reply line with its expectation, bit for bit.
pub fn check(expected: &Expected, line: &str) -> Verdict {
    let reply = match ok_reply(line) {
        Ok(reply) => reply,
        Err(verdict) => return verdict,
    };
    let usize_is = |key: &str, want: usize| number(&reply, key) == Some(want as f64);
    let good = match expected {
        Expected::Fit {
            num_graphs,
            levels,
            max_layers,
        } => {
            usize_is("num_graphs", *num_graphs)
                && usize_is("levels", *levels)
                && usize_is("max_layers", *max_layers)
        }
        Expected::Row(values) => reply
            .get("values")
            .and_then(Json::as_array)
            .is_some_and(|got| same_bits(got, values)),
        Expected::Predict {
            label,
            nearest,
            value,
        } => {
            usize_is("label", *label)
                && usize_is("nearest", *nearest)
                && number(&reply, "kernel_value").map(f64::to_bits) == Some(value.to_bits())
        }
        Expected::Append { num_graphs } => usize_is("num_graphs", *num_graphs),
        Expected::Entropies(values) => reply
            .get("entropies")
            .and_then(Json::as_array)
            .is_some_and(|got| same_bits(got, values)),
    };
    if good {
        Verdict::Match
    } else {
        let mut shown = line.to_string();
        shown.truncate(160);
        Verdict::Mismatch(format!("expected {expected:?}, got {shown}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_compare_bit_for_bit() {
        let want = Expected::Row(vec![0.1 + 0.2, 3.0, -0.0]);
        let exact = format!(
            "{{\"ok\":true,\"values\":{}}}",
            Json::Arr(vec![Json::Num(0.1 + 0.2), Json::Num(3.0), Json::Num(-0.0)])
        );
        assert_eq!(check(&want, &exact), Verdict::Match);
        // One ulp away is a mismatch, and so is a sign-flipped zero.
        let off = (0.1f64 + 0.2).to_bits() + 1;
        let near = format!("{{\"ok\":true,\"values\":[{},3,-0]}}", f64::from_bits(off));
        assert!(matches!(check(&want, &near), Verdict::Mismatch(_)));
        assert!(matches!(
            check(&want, "{\"ok\":true,\"values\":[0.30000000000000004,3,0]}"),
            Verdict::Mismatch(_)
        ));
    }

    #[test]
    fn refusals_are_failures_not_mismatches() {
        let want = Expected::Append { num_graphs: 4 };
        assert_eq!(
            check(
                &want,
                "{\"ok\":false,\"error\":\"overloaded\",\"rejected\":\"overloaded\"}"
            ),
            Verdict::Failed("overloaded".to_string())
        );
        assert_eq!(
            check(&want, "{\"ok\":true,\"num_graphs\":4}"),
            Verdict::Match
        );
        assert!(matches!(check(&want, "not json"), Verdict::Mismatch(_)));
    }
}
