//! Query distributions: weighted templates that sample concrete SPJ
//! queries with controlled selectivities.
//!
//! A template fixes the query *shape* (tables, joins, restricted
//! columns and their selectivity ranges); sampling instantiates fresh
//! predicate constants. Selectivity control uses the column's equi-depth
//! histogram: a range predicate targeting a fraction `f` picks a random
//! start quantile `q` and spans `[quantile(q), quantile(q+f)]`.

use colt_catalog::{ColRef, ColumnStats, Database};
use colt_engine::{JoinPred, Query, SelPred};
use colt_storage::{Prng, Value};

/// How a template restricts one column.
#[derive(Debug, Clone, PartialEq)]
pub enum SelSpec {
    /// Equality with a fresh uniform value from the column's domain.
    Eq,
    /// Range covering a fraction of the rows, sampled uniformly from
    /// `[lo_frac, hi_frac]`.
    RangeFrac {
        /// Minimum fraction of rows covered.
        lo_frac: f64,
        /// Maximum fraction of rows covered.
        hi_frac: f64,
    },
}

/// One templated selection.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateSelection {
    /// The restricted column.
    pub col: ColRef,
    /// Selectivity specification.
    pub spec: SelSpec,
}

/// A query template.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTemplate {
    /// Referenced tables.
    pub tables: Vec<colt_catalog::TableId>,
    /// Equi-join predicates.
    pub joins: Vec<JoinPred>,
    /// Templated selections.
    pub selections: Vec<TemplateSelection>,
}

impl QueryTemplate {
    /// Single-table template.
    pub fn single(table: colt_catalog::TableId, selections: Vec<TemplateSelection>) -> Self {
        QueryTemplate { tables: vec![table], joins: Vec::new(), selections }
    }

    /// Instantiate a concrete query.
    pub fn sample(&self, db: &Database, rng: &mut Prng) -> Query {
        let selections = self
            .selections
            .iter()
            .map(|ts| {
                let stats = db.table(ts.col.table).column_stats(ts.col.column);
                match &ts.spec {
                    SelSpec::Eq => SelPred::eq(ts.col, sample_domain_value(stats, rng)),
                    SelSpec::RangeFrac { lo_frac, hi_frac } => {
                        let f = rng.f64_range(*lo_frac, *hi_frac).clamp(0.0, 1.0);
                        let q0 = rng.f64_range(0.0, (1.0 - f).max(0.0));
                        let lo = quantile(stats, q0);
                        let hi = quantile(stats, (q0 + f).min(1.0));
                        SelPred::between(ts.col, lo, hi)
                    }
                }
            })
            .collect();
        Query { tables: self.tables.clone(), joins: self.joins.clone(), selections }
    }
}

/// A uniform value from the column's observed domain (integer-like
/// columns sample uniformly in `[min, max]`; other types pick an
/// existing histogram boundary).
fn sample_domain_value(stats: &ColumnStats, rng: &mut Prng) -> Value {
    match (&stats.min, &stats.max) {
        (Some(Value::Int(lo)), Some(Value::Int(hi))) => Value::Int(rng.int_range(*lo, *hi)),
        (Some(Value::Date(lo)), Some(Value::Date(hi))) => Value::Date(rng.int_range(*lo as i64, *hi as i64) as i32),
        _ => {
            if stats.bounds.is_empty() {
                Value::Int(0)
            } else {
                stats.bounds[rng.below(stats.bounds.len())].clone()
            }
        }
    }
}

/// Value at quantile `q ∈ [0, 1]` of the column's equi-depth histogram,
/// with linear interpolation inside the bucket.
pub fn quantile(stats: &ColumnStats, q: f64) -> Value {
    assert!(!stats.bounds.is_empty(), "quantile needs statistics");
    let nb = stats.bounds.len() - 1;
    let pos = q.clamp(0.0, 1.0) * nb as f64;
    let lo_idx = (pos.floor() as usize).min(nb);
    let hi_idx = (lo_idx + 1).min(nb);
    let frac = pos - lo_idx as f64;
    let lo = &stats.bounds[lo_idx];
    let hi = &stats.bounds[hi_idx];
    interpolate(lo, hi, frac)
}

fn interpolate(lo: &Value, hi: &Value, frac: f64) -> Value {
    match (lo, hi) {
        (Value::Int(a), Value::Int(b)) => Value::Int(a + ((*b - *a) as f64 * frac).round() as i64),
        (Value::Date(a), Value::Date(b)) => {
            Value::Date(a + ((*b - *a) as f64 * frac).round() as i32)
        }
        (Value::Float(a), Value::Float(b)) => Value::Float(a + (b - a) * frac),
        _ => {
            if frac < 0.5 {
                lo.clone()
            } else {
                hi.clone()
            }
        }
    }
}

/// A weighted mixture of query templates.
#[derive(Debug, Clone, Default)]
pub struct QueryDistribution {
    templates: Vec<(f64, QueryTemplate)>,
    total_weight: f64,
}

impl QueryDistribution {
    /// Empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a template with a weight.
    pub fn push(&mut self, weight: f64, template: QueryTemplate) {
        assert!(weight > 0.0, "weights must be positive");
        self.total_weight += weight;
        self.templates.push((weight, template));
    }

    /// Builder-style [`QueryDistribution::push`].
    pub fn with(mut self, weight: f64, template: QueryTemplate) -> Self {
        self.push(weight, template);
        self
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Whether the distribution has no templates.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// Sample one query.
    pub fn sample(&self, db: &Database, rng: &mut Prng) -> Query {
        assert!(!self.templates.is_empty(), "cannot sample an empty distribution");
        let mut pick = rng.f64_range(0.0, self.total_weight);
        for (w, t) in &self.templates {
            if pick < *w {
                return t.sample(db, rng);
            }
            pick -= w;
        }
        #[expect(clippy::unwrap_used, reason = "sample() asserts the templates are non-empty")]
        self.templates.last().unwrap().1.sample(db, rng)
    }

    /// All columns restricted by any template — the distribution's
    /// relevant indices.
    pub fn relevant_columns(&self) -> Vec<ColRef> {
        let mut cols: Vec<ColRef> = self
            .templates
            .iter()
            .flat_map(|(_, t)| t.selections.iter().map(|s| s.col))
            .collect();
        cols.sort_unstable();
        cols.dedup();
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use colt_catalog::{Column, TableSchema};
    use colt_engine::selectivity::predicate_selectivity;
    use colt_storage::{row_from, ValueType};

    fn db() -> (Database, colt_catalog::TableId) {
        let mut db = Database::new();
        let t = db.add_table(TableSchema::new(
            "t",
            vec![Column::new("k", ValueType::Int), Column::new("d", ValueType::Date)],
        ));
        db.insert_rows(
            t,
            (0..50_000i64).map(|i| row_from(vec![Value::Int(i), Value::Date((i % 2000) as i32)])),
        ).unwrap();
        db.analyze_all();
        (db, t)
    }

    #[test]
    fn quantile_monotone_and_bounded() {
        let (db, t) = db();
        let stats = db.table(t).column_stats(0);
        let q0 = quantile(stats, 0.0);
        let q5 = quantile(stats, 0.5);
        let q1 = quantile(stats, 1.0);
        assert!(q0 <= q5 && q5 <= q1);
        assert_eq!(q0, Value::Int(0));
        assert_eq!(q1, Value::Int(49_999));
        // Mid-quantile near the median for uniform data.
        let Value::Int(v) = q5 else { panic!() };
        assert!((v - 25_000).abs() < 2_000, "got {v}");
    }

    #[test]
    fn range_frac_hits_target_selectivity() {
        let (db, t) = db();
        let col = ColRef::new(t, 0);
        let tpl = QueryTemplate::single(
            t,
            vec![TemplateSelection { col, spec: SelSpec::RangeFrac { lo_frac: 0.01, hi_frac: 0.01 } }],
        );
        let mut rng = Prng::new(3);
        for _ in 0..20 {
            let q = tpl.sample(&db, &mut rng);
            let sel = predicate_selectivity(&db, &q.selections[0]);
            assert!((0.002..0.05).contains(&sel), "selectivity {sel}");
        }
    }

    #[test]
    fn eq_sampling_in_domain() {
        let (db, t) = db();
        let col = ColRef::new(t, 1);
        let tpl =
            QueryTemplate::single(t, vec![TemplateSelection { col, spec: SelSpec::Eq }]);
        let mut rng = Prng::new(3);
        for _ in 0..20 {
            let q = tpl.sample(&db, &mut rng);
            let colt_engine::PredicateKind::Eq(Value::Date(d)) = &q.selections[0].kind else {
                panic!("expected date eq");
            };
            assert!((0..2000).contains(d));
        }
    }

    #[test]
    fn mixture_uses_all_templates() {
        let (db, t) = db();
        let c0 = ColRef::new(t, 0);
        let c1 = ColRef::new(t, 1);
        let dist = QueryDistribution::new()
            .with(1.0, QueryTemplate::single(t, vec![TemplateSelection { col: c0, spec: SelSpec::Eq }]))
            .with(1.0, QueryTemplate::single(t, vec![TemplateSelection { col: c1, spec: SelSpec::Eq }]));
        assert_eq!(dist.relevant_columns(), vec![c0, c1]);
        let mut rng = Prng::new(5);
        let mut seen = [false, false];
        for _ in 0..100 {
            let q = dist.sample(&db, &mut rng);
            seen[q.selections[0].col.column as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn sampling_is_deterministic() {
        let (db, t) = db();
        let col = ColRef::new(t, 0);
        let dist = QueryDistribution::new().with(
            1.0,
            QueryTemplate::single(
                t,
                vec![TemplateSelection { col, spec: SelSpec::RangeFrac { lo_frac: 0.01, hi_frac: 0.1 } }],
            ),
        );
        let mut a = Prng::new(9);
        let mut b = Prng::new(9);
        for _ in 0..10 {
            assert_eq!(dist.sample(&db, &mut a), dist.sample(&db, &mut b));
        }
    }
}
