//! System-R style cost formulas shared by the optimizer and COLT's crude
//! benefit estimator.
//!
//! Costs are expressed in the same abstract cost units as
//! [`colt_storage::CostParams`], so optimizer estimates and executor
//! charges are directly comparable.

use colt_catalog::IndexEstimate;
use colt_storage::CostParams;

/// Cost of a full sequential scan over `pages` pages producing `rows`
/// tuples, with `preds` predicates evaluated per tuple.
pub fn seq_scan_cost(params: &CostParams, pages: f64, rows: f64, preds: usize) -> f64 {
    params.seq_page_cost * pages
        + params.cpu_tuple_cost * rows
        + params.cpu_operator_cost * rows * preds as f64
}

/// Expected number of distinct heap pages touched when fetching `matches`
/// uniformly distributed rows from a heap of `pages` pages (Yao's
/// approximation). This mirrors the executor's bitmap-style sorted fetch,
/// which deduplicates page accesses.
pub fn heap_pages_fetched(matches: f64, pages: f64) -> f64 {
    if pages <= 0.0 || matches <= 0.0 {
        return 0.0;
    }
    // pages * (1 - (1 - 1/pages)^matches), computed stably.
    let frac = if pages < 1.5 {
        1.0
    } else {
        1.0 - ((1.0 - 1.0 / pages).ln() * matches).exp()
    };
    (pages * frac).min(matches).max(1.0)
}

/// Cost of an index scan that selects a `selectivity` fraction of
/// `table_rows` rows from a heap of `table_pages` pages through an index
/// of the given estimated shape, then applies `residual_preds` remaining
/// predicates to each fetched row.
pub fn index_scan_cost(
    params: &CostParams,
    index: &IndexEstimate,
    selectivity: f64,
    table_rows: f64,
    table_pages: f64,
    residual_preds: usize,
) -> f64 {
    let matches = (selectivity * table_rows).max(0.0);
    // Descent: one random page per level.
    let descent = params.random_page_cost * index.height as f64;
    // Leaf chain: the first leaf is part of the descent; additional
    // leaves are sequential.
    let leaves = (selectivity * index.leaf_pages as f64).ceil().max(1.0) - 1.0;
    let leaf_cost = params.seq_page_cost * leaves;
    // Heap fetches: sorted + deduplicated, so distinct pages only.
    let heap = params.random_page_cost * heap_pages_fetched(matches, table_pages);
    let cpu = params.cpu_tuple_cost * matches
        + params.cpu_operator_cost * matches * (1 + residual_preds) as f64;
    descent + leaf_cost + heap + cpu
}

/// Cost of building a hash table over `build_rows` rows and probing it
/// with `probe_rows` rows, emitting `out_rows` rows.
pub fn hash_join_cost(params: &CostParams, build_rows: f64, probe_rows: f64, out_rows: f64) -> f64 {
    params.cpu_operator_cost * (2.0 * build_rows + probe_rows)
        + params.cpu_tuple_cost * out_rows
}

/// Cost of an index nested-loop join: one B+ tree descent per outer
/// row, plus the heap fetches of the matching inner rows (deduplicated
/// per probe) and per-row CPU for residual predicates.
pub fn index_nl_join_cost(
    params: &CostParams,
    outer_rows: f64,
    inner_index: &IndexEstimate,
    matches_per_probe: f64,
    inner_pages: f64,
    residual_preds: usize,
) -> f64 {
    let probes = outer_rows.max(0.0);
    let descent = params.random_page_cost * inner_index.height as f64;
    let heap = params.random_page_cost * heap_pages_fetched(matches_per_probe, inner_pages);
    let cpu = params.cpu_tuple_cost * matches_per_probe
        + params.cpu_operator_cost * matches_per_probe * (1 + residual_preds) as f64;
    probes * (descent + heap + cpu)
}

/// Crude single-predicate gain estimate `Δcost(R, σ, I)` used for
/// `BenefitC` (paper §4.1): the difference between evaluating σ with a
/// sequential scan of R versus an index scan through I, using standard
/// cost formulas. Optimistic by design — its only job is to rank raw
/// candidates for promotion into the hot set.
pub fn delta_cost(
    params: &CostParams,
    index: &IndexEstimate,
    selectivity: f64,
    table_rows: f64,
    table_pages: f64,
) -> f64 {
    let seq = seq_scan_cost(params, table_pages, table_rows, 1);
    let idx = index_scan_cost(params, index, selectivity, table_rows, table_pages, 0);
    (seq - idx).max(0.0)
}

/// Estimated cost of materializing an index of the given shape over a
/// heap of `table_rows` rows in `table_pages` pages: a sequential heap
/// scan, per-tuple key extraction, an `n log2 n` sort and the index page
/// writes — mirroring `colt_catalog`'s build charges.
pub fn build_cost(params: &CostParams, index: &IndexEstimate, table_rows: f64, table_pages: f64) -> f64 {
    let sort_ops = if table_rows > 1.0 { table_rows * table_rows.log2() } else { 0.0 };
    params.seq_page_cost * table_pages
        + params.cpu_tuple_cost * table_rows
        + params.cpu_operator_cost * sort_ops
        + params.page_write_cost * index.pages as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> CostParams {
        CostParams::default()
    }

    #[test]
    fn seq_scan_scales_with_pages_and_rows() {
        let p = params();
        let small = seq_scan_cost(&p, 10.0, 640.0, 1);
        let large = seq_scan_cost(&p, 100.0, 6400.0, 1);
        assert!(large > small * 9.0);
    }

    #[test]
    fn yao_formula_bounds() {
        assert_eq!(heap_pages_fetched(0.0, 100.0), 0.0);
        // One match touches one page.
        assert!((heap_pages_fetched(1.0, 100.0) - 1.0).abs() < 0.01);
        // Many more matches than pages: every page touched.
        assert!((heap_pages_fetched(1e6, 100.0) - 100.0).abs() < 1e-6);
        // Never more pages than matches.
        assert!(heap_pages_fetched(5.0, 1000.0) <= 5.0);
        // Monotone in matches.
        assert!(heap_pages_fetched(50.0, 100.0) < heap_pages_fetched(500.0, 100.0));
    }

    #[test]
    fn index_scan_beats_seq_scan_when_selective() {
        let p = params();
        let est = IndexEstimate::for_table(1_000_000, 8);
        let rows = 1_000_000.0;
        let pages = 16_000.0;
        let selective = index_scan_cost(&p, &est, 0.001, rows, pages, 0);
        let seq = seq_scan_cost(&p, pages, rows, 1);
        assert!(selective < seq, "selective index scan {selective} vs seq {seq}");
    }

    #[test]
    fn seq_scan_beats_index_scan_when_unselective() {
        let p = params();
        let est = IndexEstimate::for_table(1_000_000, 8);
        let rows = 1_000_000.0;
        let pages = 16_000.0;
        let unselective = index_scan_cost(&p, &est, 0.5, rows, pages, 0);
        let seq = seq_scan_cost(&p, pages, rows, 1);
        assert!(unselective > seq, "unselective index scan {unselective} vs seq {seq}");
    }

    #[test]
    fn crossover_exists_between_selectivities() {
        // There must be a selectivity where the winner flips — the paper's
        // 0–2% "selective" bucket is meant to straddle it.
        let p = params();
        let est = IndexEstimate::for_table(100_000, 8);
        let rows = 100_000.0;
        let pages = 1_600.0;
        let seq = seq_scan_cost(&p, pages, rows, 1);
        let idx_at = |s: f64| index_scan_cost(&p, &est, s, rows, pages, 0);
        assert!(idx_at(0.0005) < seq);
        assert!(idx_at(0.9) > seq);
    }

    #[test]
    fn delta_cost_nonnegative_and_monotone() {
        let p = params();
        let est = IndexEstimate::for_table(100_000, 8);
        let d_sel = delta_cost(&p, &est, 0.001, 100_000.0, 1600.0);
        let d_unsel = delta_cost(&p, &est, 0.9, 100_000.0, 1600.0);
        assert!(d_sel > 0.0);
        assert_eq!(d_unsel, 0.0, "no gain clamped at zero");
    }

    #[test]
    fn inl_join_scales_with_outer_and_beats_hash_when_outer_small() {
        let p = params();
        let est = IndexEstimate::for_table(1_000_000, 8);
        // Few outer rows: probing a large inner through the index is far
        // cheaper than building a hash table over the whole inner.
        let inl = index_nl_join_cost(&p, 10.0, &est, 2.0, 16_000.0, 0);
        let hash = hash_join_cost(&p, 1_000_000.0, 10.0, 20.0)
            + seq_scan_cost(&p, 16_000.0, 1_000_000.0, 0);
        assert!(inl < hash, "inl {inl} vs hash+scan {hash}");
        // Cost is linear in outer rows.
        let inl2 = index_nl_join_cost(&p, 20.0, &est, 2.0, 16_000.0, 0);
        assert!((inl2 / inl - 2.0).abs() < 1e-9);
    }

    #[test]
    fn hash_join_cost_linear() {
        let p = params();
        let c1 = hash_join_cost(&p, 1000.0, 1000.0, 100.0);
        let c2 = hash_join_cost(&p, 2000.0, 2000.0, 200.0);
        assert!((c2 / c1 - 2.0).abs() < 1e-9);
    }
}
