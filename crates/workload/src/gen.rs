//! Column value generators for synthetic data.

use colt_storage::Value;
use colt_storage::Prng;

/// How the values of one column are generated.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnGen {
    /// Dense primary key `0..rows`.
    Key,
    /// Foreign key: uniform over `0..target_rows`.
    ForeignKey {
        /// Cardinality of the referenced table.
        target_rows: u64,
    },
    /// Uniform integer in `[lo, hi]`.
    IntUniform {
        /// Inclusive lower bound.
        lo: i64,
        /// Inclusive upper bound.
        hi: i64,
    },
    /// Categorical: uniform over `0..choices` distinct integers.
    Choice {
        /// Number of distinct values.
        choices: u64,
    },
    /// Uniform float in `[lo, hi)`, rounded to cents.
    FloatUniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Uniform date in `[lo, hi]` (days).
    DateUniform {
        /// Inclusive lower bound in days.
        lo: i32,
        /// Inclusive upper bound in days.
        hi: i32,
    },
    /// Short string drawn from a pool of `pool` variants with a prefix.
    StrPool {
        /// Number of distinct strings.
        pool: u64,
    },
    /// Zipf-distributed integer over `0..n`: value `k` has probability
    /// proportional to `1/(k+1)^s`. Models skewed categorical data
    /// (hot customers, popular parts), which stresses the equi-depth
    /// histograms and the uniform-within-distinct equality estimate.
    Zipf {
        /// Number of distinct values.
        n: u64,
        /// Skew exponent (`0` = uniform; `1` = classic Zipf).
        s: f64,
    },
}

impl ColumnGen {
    /// Generate the value for row `row` of a table with `rows` rows.
    pub fn generate(&self, row: u64, _rows: u64, rng: &mut Prng) -> Value {
        match self {
            ColumnGen::Key => Value::Int(row as i64),
            ColumnGen::ForeignKey { target_rows } => {
                Value::Int(rng.below_u64((*target_rows).max(1)) as i64)
            }
            ColumnGen::IntUniform { lo, hi } => Value::Int(rng.int_range(*lo, *hi)),
            ColumnGen::Choice { choices } => Value::Int(rng.below_u64((*choices).max(1)) as i64),
            ColumnGen::FloatUniform { lo, hi } => {
                let v: f64 = rng.f64_range(*lo, *hi);
                Value::Float((v * 100.0).round() / 100.0)
            }
            ColumnGen::DateUniform { lo, hi } => Value::Date(rng.int_range(*lo as i64, *hi as i64) as i32),
            ColumnGen::StrPool { pool } => {
                let k = rng.below_u64((*pool).max(1));
                Value::Str(format!("s{k:08}"))
            }
            ColumnGen::Zipf { n, s } => Value::Int(zipf_sample(*n, *s, rng)),
        }
    }

    /// Domain bounds `(lo, hi)` on the real line, for query generation.
    /// `None` for dense keys (domain depends on the table size).
    pub fn domain(&self) -> Option<(f64, f64)> {
        match self {
            ColumnGen::Key => None,
            ColumnGen::ForeignKey { target_rows } => Some((0.0, (*target_rows).max(1) as f64 - 1.0)),
            ColumnGen::IntUniform { lo, hi } => Some((*lo as f64, *hi as f64)),
            ColumnGen::Choice { choices } => Some((0.0, (*choices).max(1) as f64 - 1.0)),
            ColumnGen::FloatUniform { lo, hi } => Some((*lo, *hi)),
            ColumnGen::DateUniform { lo, hi } => Some((*lo as f64, *hi as f64)),
            ColumnGen::StrPool { .. } => None,
            ColumnGen::Zipf { n, .. } => Some((0.0, (*n).max(1) as f64 - 1.0)),
        }
    }

    /// Approximate number of distinct values in a table of `rows` rows.
    pub fn distinct(&self, rows: u64) -> u64 {
        match self {
            ColumnGen::Key => rows,
            ColumnGen::ForeignKey { target_rows } => (*target_rows).min(rows).max(1),
            ColumnGen::IntUniform { lo, hi } => ((hi - lo + 1) as u64).min(rows).max(1),
            ColumnGen::Choice { choices } => (*choices).min(rows).max(1),
            ColumnGen::FloatUniform { .. } => rows.max(1),
            ColumnGen::DateUniform { lo, hi } => ((hi - lo + 1) as u64).min(rows).max(1),
            ColumnGen::StrPool { pool } => (*pool).min(rows).max(1),
            ColumnGen::Zipf { n, .. } => (*n).min(rows).max(1),
        }
    }
}

/// Draw one Zipf(s) sample over `0..n` by inverse-CDF over the
/// generalized harmonic numbers (O(log n) per draw after an O(n) table
/// would be ideal; for generation-time use the direct rejection-free
/// partial-sum walk is fine at our domain sizes).
fn zipf_sample(n: u64, s: f64, rng: &mut Prng) -> i64 {
    let n = n.max(1);
    // Normalization constant H_{n,s}.
    let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
    let target: f64 = rng.f64_range(0.0, h);
    let mut acc = 0.0;
    for k in 1..=n {
        acc += 1.0 / (k as f64).powf(s);
        if acc >= target {
            return (k - 1) as i64;
        }
    }
    (n - 1) as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    fn rng() -> Prng {
        Prng::new(1)
    }

    #[test]
    fn key_is_dense() {
        let g = ColumnGen::Key;
        let mut r = rng();
        assert_eq!(g.generate(42, 100, &mut r), Value::Int(42));
        assert_eq!(g.distinct(100), 100);
    }

    #[test]
    fn choice_respects_cardinality() {
        let g = ColumnGen::Choice { choices: 5 };
        let mut r = rng();
        for row in 0..200 {
            match g.generate(row, 200, &mut r) {
                Value::Int(v) => assert!((0..5).contains(&v)),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(g.distinct(200), 5);
        assert_eq!(g.domain(), Some((0.0, 4.0)));
    }

    #[test]
    fn ranges_respected() {
        let mut r = rng();
        let g = ColumnGen::IntUniform { lo: -5, hi: 5 };
        for row in 0..100 {
            let Value::Int(v) = g.generate(row, 100, &mut r) else { panic!() };
            assert!((-5..=5).contains(&v));
        }
        let g = ColumnGen::DateUniform { lo: 100, hi: 200 };
        let Value::Date(d) = g.generate(0, 1, &mut r) else { panic!() };
        assert!((100..=200).contains(&d));
        let g = ColumnGen::FloatUniform { lo: 1.0, hi: 2.0 };
        let Value::Float(f) = g.generate(0, 1, &mut r) else { panic!() };
        assert!((1.0..=2.0).contains(&f));
    }

    #[test]
    fn strings_from_pool() {
        let g = ColumnGen::StrPool { pool: 3 };
        let mut r = rng();
        let mut seen = std::collections::BTreeSet::new();
        for row in 0..100 {
            let Value::Str(s) = g.generate(row, 100, &mut r) else { panic!() };
            seen.insert(s);
        }
        assert!(seen.len() <= 3);
        assert_eq!(g.distinct(100), 3);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let g = ColumnGen::Zipf { n: 100, s: 1.0 };
        let mut r = rng();
        let mut counts = vec![0u32; 100];
        for row in 0..20_000 {
            let Value::Int(v) = g.generate(row, 20_000, &mut r) else { panic!() };
            assert!((0..100).contains(&v));
            counts[v as usize] += 1;
        }
        // Head dominates: value 0 far more frequent than value 50.
        assert!(counts[0] > counts[50] * 10, "{} vs {}", counts[0], counts[50]);
        // But the tail is populated.
        assert!(counts[50] > 0);
        assert_eq!(g.distinct(20_000), 100);
        assert_eq!(g.domain(), Some((0.0, 99.0)));
    }

    #[test]
    fn zipf_zero_skew_is_roughly_uniform() {
        let g = ColumnGen::Zipf { n: 10, s: 0.0 };
        let mut r = rng();
        let mut counts = vec![0u32; 10];
        for row in 0..10_000 {
            let Value::Int(v) = g.generate(row, 10_000, &mut r) else { panic!() };
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "uniform-ish: {counts:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ColumnGen::ForeignKey { target_rows: 1000 };
        let mut a = rng();
        let mut b = rng();
        for row in 0..50 {
            assert_eq!(g.generate(row, 50, &mut a), g.generate(row, 50, &mut b));
        }
    }
}
