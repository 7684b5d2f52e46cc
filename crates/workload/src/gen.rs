//! Column value generators for synthetic data.
//!
//! A table is drawn row by row — each row's cells in column order, one
//! [`Prng`] for the whole data set — straight into one typed [`Batch`]
//! per column ([`draw_columns`]): no [`Value`] and no `String` per cell.
//! [`ColumnGen::generate`] is the same draw as a [`Value`].

use colt_storage::{Batch, Prng, Value, ValueType};

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
    /// Generate the value of row `row`: one draw ([`draw_columns`]'s) as
    /// a [`Value`]. A Zipf generator sums its weights on every call;
    /// [`draw_columns`] sums them once per column.
    pub fn generate(&self, row: u64, rng: &mut Prng) -> Value {
        match Sampler::new(self).draw(row, rng) {
            Draw::Int(x) => Value::Int(x),
            Draw::Float(x) => Value::Float(x),
            Draw::Date(x) => Value::Date(x),
            Draw::Pooled(k) => Value::Str(pool_string(k)),
        }
    }

    /// The type of the values the generator draws.
    pub fn value_type(&self) -> ValueType {
        match self {
            ColumnGen::FloatUniform { .. } => ValueType::Float,
            ColumnGen::DateUniform { .. } => ValueType::Date,
            ColumnGen::StrPool { .. } => ValueType::Str,
            ColumnGen::Key
            | ColumnGen::ForeignKey { .. }
            | ColumnGen::IntUniform { .. }
            | ColumnGen::Choice { .. }
            | ColumnGen::Zipf { .. } => ValueType::Int,
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

/// One drawn cell in its column's own type; a pooled string is its
/// index in the pool ([`pool_string`]).
#[derive(Debug, Clone, Copy)]
enum Draw {
    Int(i64),
    Float(f64),
    Date(i32),
    Pooled(u64),
}

/// A [`ColumnGen`] ready to draw: a Zipf's cumulative weights summed once.
struct Sampler<'a> {
    gen: &'a ColumnGen,
    /// For `Zipf { n, s }`, entry `k` is `Σ_{j ≤ k+1} 1/j^s`, summed in
    /// that order (so the last entry is `H_{n,s}` bit for bit); empty for
    /// any other generator.
    cumulative: Vec<f64>,
}

impl<'a> Sampler<'a> {
    fn new(gen: &'a ColumnGen) -> Self {
        let cumulative = match *gen {
            ColumnGen::Zipf { n, s } => (1..=n.max(1))
                .scan(0.0, |acc: &mut f64, k| {
                    *acc += 1.0 / (k as f64).powf(s);
                    Some(*acc)
                })
                .collect(),
            _ => Vec::new(),
        };
        Sampler { gen, cumulative }
    }

    /// The cell of row `row`: the one draw every generator makes.
    fn draw(&self, row: u64, rng: &mut Prng) -> Draw {
        match *self.gen {
            ColumnGen::Key => Draw::Int(row as i64),
            ColumnGen::ForeignKey { target_rows } => Draw::Int(rng.below_u64(target_rows.max(1)) as i64),
            ColumnGen::IntUniform { lo, hi } => Draw::Int(rng.int_range(lo, hi)),
            ColumnGen::Choice { choices } => Draw::Int(rng.below_u64(choices.max(1)) as i64),
            ColumnGen::FloatUniform { lo, hi } => {
                let v: f64 = rng.f64_range(lo, hi);
                Draw::Float((v * 100.0).round() / 100.0)
            }
            ColumnGen::DateUniform { lo, hi } => Draw::Date(rng.int_range(lo as i64, hi as i64) as i32),
            ColumnGen::StrPool { pool } => Draw::Pooled(rng.below_u64(pool.max(1))),
            ColumnGen::Zipf { .. } => Draw::Int(self.zipf(rng)),
        }
    }

    /// One Zipf(s) sample over `0..n` by inverse CDF: the first `k` whose
    /// cumulative weight reaches a uniform target below `H_{n,s}`, found
    /// by binary search over the weights summed once.
    fn zipf(&self, rng: &mut Prng) -> i64 {
        let (Some(&h), n) = (self.cumulative.last(), self.cumulative.len()) else { return 0 };
        let target: f64 = rng.f64_range(0.0, h);
        self.cumulative.partition_point(|&acc| acc < target).min(n - 1) as i64
    }
}

/// Pool entry `k` as a string: `s` and `k` in at least eight digits,
/// what `format!("s{k:08}")` writes. Below 10⁸ every entry has nine
/// bytes, so entries sort as their indices do (every pool here is below
/// 50 001): [`draw_columns`] hands a column's entries to the heap
/// already in dictionary order, which its sort then finishes in one
/// pass. The order is the speed, not the result: the heap sorts any
/// batch's strings itself.
fn pool_string(k: u64) -> String {
    let digits = k.checked_ilog10().map_or(1, |d| d + 1).max(8);
    let mut s = String::with_capacity(1 + digits as usize);
    s.push('s');
    for place in (0..digits).rev() {
        s.push(char::from(b'0' + (k / 10u64.pow(place) % 10) as u8));
    }
    s
}

/// `rows` rows of the columns `gens`, drawn row by row — row `r`'s cells
/// in column order, each [`ColumnGen::generate`]'s draw for row `r` —
/// into one [`Batch`] per column of its generator's
/// [`ColumnGen::value_type`], `rows` cells each. A pooled string column
/// is a dictionary batch: every pool entry drawn, formatted once, in
/// ascending order, and each row's place among them.
pub fn draw_columns(gens: &[ColumnGen], rows: u64, rng: &mut Prng) -> Vec<Batch> {
    /// One column's cells so far: its batch, or a pool's indices drawn.
    enum Drawn {
        Cells(Batch),
        Pooled(Vec<u64>),
    }
    let samplers: Vec<Sampler<'_>> = gens.iter().map(Sampler::new).collect();
    let mut columns: Vec<Drawn> = gens
        .iter()
        .map(|g| match g {
            ColumnGen::StrPool { .. } => Drawn::Pooled(Vec::with_capacity(rows as usize)),
            _ => Drawn::Cells(Batch::new(g.value_type(), rows as usize)),
        })
        .collect();
    for row in 0..rows {
        for (sampler, column) in samplers.iter().zip(&mut columns) {
            match (column, sampler.draw(row, rng)) {
                (Drawn::Cells(Batch::Int(xs)), Draw::Int(x)) => xs.push(x),
                (Drawn::Cells(Batch::Float(xs)), Draw::Float(x)) => xs.push(x),
                (Drawn::Cells(Batch::Date(xs)), Draw::Date(x)) => xs.push(x),
                (Drawn::Pooled(ks), Draw::Pooled(k)) => ks.push(k),
                // Unmatched: each column holds its generator's own type.
                _ => {}
            }
        }
    }
    columns
        .into_iter()
        .map(|column| match column {
            Drawn::Cells(batch) => batch,
            Drawn::Pooled(ks) => dictionary(&ks),
        })
        .collect()
}

/// The dictionary batch of the pool indices `pooled`: the distinct
/// entries as strings, ascending, and each row's place among them.
fn dictionary(pooled: &[u64]) -> Batch {
    let mut drawn = pooled.to_vec();
    drawn.sort_unstable();
    drawn.dedup();
    let ids = pooled.iter().map(|k| drawn.partition_point(|d| d < k) as u32).collect();
    Batch::Str { strings: drawn.into_iter().map(pool_string).collect(), ids }
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
        assert_eq!(g.generate(42, &mut r), Value::Int(42));
        assert_eq!(g.distinct(100), 100);
    }

    #[test]
    fn choice_respects_cardinality() {
        let g = ColumnGen::Choice { choices: 5 };
        let mut r = rng();
        for row in 0..200 {
            match g.generate(row, &mut r) {
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
            let Value::Int(v) = g.generate(row, &mut r) else { panic!() };
            assert!((-5..=5).contains(&v));
        }
        let g = ColumnGen::DateUniform { lo: 100, hi: 200 };
        let Value::Date(d) = g.generate(0, &mut r) else { panic!() };
        assert!((100..=200).contains(&d));
        let g = ColumnGen::FloatUniform { lo: 1.0, hi: 2.0 };
        let Value::Float(f) = g.generate(0, &mut r) else { panic!() };
        assert!((1.0..=2.0).contains(&f));
    }

    #[test]
    fn strings_from_pool() {
        let g = ColumnGen::StrPool { pool: 3 };
        let mut r = rng();
        let mut seen = std::collections::BTreeSet::new();
        for row in 0..100 {
            let Value::Str(s) = g.generate(row, &mut r) else { panic!() };
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
            let Value::Int(v) = g.generate(row, &mut r) else { panic!() };
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
            let Value::Int(v) = g.generate(row, &mut r) else { panic!() };
            counts[v as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "uniform-ish: {counts:?}");
        }
    }

    /// The Zipf draw as it stood before the cumulative table: the
    /// normalization summed, then the partial sums walked, every draw.
    fn zipf_walk(n: u64, s: f64, rng: &mut Prng) -> i64 {
        let n = n.max(1);
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

    #[test]
    fn zipf_table_draws_what_the_partial_sum_walk_drew() {
        for (n, s) in [(0, 1.0), (1, 1.0), (2, 0.5), (10, 0.0), (100, 1.0), (500, 1.0), (37, 2.5), (3, 40.0)] {
            let g = ColumnGen::Zipf { n, s };
            let (mut a, mut b) = (Prng::new(n ^ 0x21F), Prng::new(n ^ 0x21F));
            let table: Vec<i64> = match draw_columns(std::slice::from_ref(&g), 3_000, &mut a).pop() {
                Some(Batch::Int(xs)) => xs,
                other => panic!("an Int batch, not {other:?}"),
            };
            let walked: Vec<i64> = (0..3_000).map(|_| zipf_walk(n, s, &mut b)).collect();
            assert_eq!(table, walked, "Zipf({n}, {s})");
            // The table is the walk's partial sums, bit for bit, ending at
            // the normalization the walk drew its target below.
            let weights = || (1..=n.max(1)).map(|k| 1.0 / (k as f64).powf(s));
            let partial: Vec<u64> = weights().scan(0.0, |acc, w| Some(*acc + w).inspect(|&x| *acc = x)).map(f64::to_bits).collect();
            let cumulative = Sampler::new(&g).cumulative;
            assert_eq!(cumulative.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), partial);
            assert_eq!(cumulative.last().map(|x| x.to_bits()), Some(weights().sum::<f64>().to_bits()));
            assert_eq!(g.generate(0, &mut a), Value::Int(zipf_walk(n, s, &mut b)));
        }
    }

    #[test]
    fn pool_strings_are_format_s08_and_sort_as_their_indices_below_1e8() {
        let ks = [0, 1, 9, 10, 99, 12_345, 49_999, 50_000, 9_999_999, 99_999_999, 100_000_000, 123_456_789_012, u64::MAX];
        for k in ks {
            assert_eq!(pool_string(k), format!("s{k:08}"));
        }
        let below: Vec<String> = ks.iter().filter(|&&k| k < 100_000_000).map(|&k| pool_string(k)).collect();
        assert!(below.windows(2).all(|w| w[0] < w[1]), "{below:?}");
        // Past 10⁸ the order breaks: the order is draw_columns' speed only.
        assert!(pool_string(100_000_000) < pool_string(99_999_999));
    }

    /// Each batch's cells as `Value`s, row by row.
    fn values(batch: &Batch) -> Vec<Value> {
        match batch {
            Batch::Int(xs) => xs.iter().map(|&x| Value::Int(x)).collect(),
            Batch::Float(xs) => xs.iter().map(|&x| Value::Float(x)).collect(),
            Batch::Date(xs) => xs.iter().map(|&x| Value::Date(x)).collect(),
            Batch::Str { strings, ids } => ids.iter().map(|&id| Value::Str(strings[id as usize].clone())).collect(),
        }
    }

    #[test]
    fn draw_columns_draws_what_generate_draws_row_by_row() {
        let gens = [
            ColumnGen::Key,
            ColumnGen::ForeignKey { target_rows: 40 },
            ColumnGen::StrPool { pool: 500 },
            ColumnGen::IntUniform { lo: -5, hi: 9 },
            ColumnGen::Choice { choices: 3 },
            ColumnGen::FloatUniform { lo: -2.0, hi: 7.5 },
            ColumnGen::DateUniform { lo: 100, hi: 900 },
            ColumnGen::Zipf { n: 50, s: 1.2 },
            ColumnGen::StrPool { pool: 1 },
        ];
        let (mut a, mut b) = (rng(), rng());
        let batches = draw_columns(&gens, 700, &mut a);
        let mut want: Vec<Vec<Value>> = vec![Vec::new(); gens.len()];
        for row in 0..700 {
            for (g, column) in gens.iter().zip(&mut want) {
                column.push(g.generate(row, &mut b));
            }
        }
        assert_eq!(a.next_u64(), b.next_u64(), "the same number of draws");
        for ((g, batch), want) in gens.iter().zip(&batches).zip(&want) {
            assert_eq!(batch.value_type(), g.value_type());
            assert_eq!(&values(batch), want, "{g:?}");
            // A pool's dictionary: each drawn entry once, in string order.
            if let Batch::Str { strings, .. } = batch {
                assert!(strings.windows(2).all(|w| w[0] < w[1]), "{g:?}");
            }
        }
        assert!(draw_columns(&gens, 0, &mut a).iter().all(Batch::is_empty));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ColumnGen::ForeignKey { target_rows: 1000 };
        let mut a = rng();
        let mut b = rng();
        for row in 0..50 {
            assert_eq!(g.generate(row, &mut a), g.generate(row, &mut b));
        }
    }
}
