//! What one untraced process measured, and the end-to-end metrics
//! computed from it. The full protocol pools the samples of several
//! processes (passes) with [`Sample::merge`] before summarising, so a
//! single run and the pooled run share one estimator.
//!
//! The estimator rejects noise at two levels. Inside a process, every
//! round of a stream executes the same queries on the same data, so
//! each query's time is the fastest of its repeats ([`StreamSample::of`]):
//! the loop is deterministic and never waits, and a noisy neighbour
//! only ever adds time. Across processes, a stream's value is the
//! fastest process's. The run's value is the mean over its streams.

use crate::closed_loop::Round;
use crate::metrics::Values;
use crate::stats::{fastest, mean};
use colt_core::json::Json;

/// One query stream as one process saw it.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSample {
    /// Which of the run's query streams.
    pub stream: usize,
    pub queries: usize,
    /// Timed rounds behind the values.
    pub rounds: usize,
    /// Σ per-query loop latency (optimize + execute + on_query).
    pub wall_s: f64,
    /// Geometric mean of the per-query loop latency.
    pub geomean_us: f64,
    /// Mean latency of the slowest 5 % of the queries.
    pub slow5_us: f64,
}

impl StreamSample {
    /// Summarise the timed rounds of one stream: per query, the fastest
    /// repeat. `None` without a round.
    pub fn of(stream: usize, rounds: &[&Round]) -> Option<StreamSample> {
        let queries = rounds.first()?.queries.len();
        let fastest_ns = |i: usize| rounds.iter().map(|r| r.queries[i].latency_ns()).min();
        let mut latency: Vec<u64> = (0..queries).filter_map(fastest_ns).collect();
        let log_sum: f64 = latency
            .iter()
            .map(|&ns| (ns.max(1) as f64 / 1e3).ln())
            .sum();
        latency.sort_unstable();
        let tail = &latency[queries - queries.div_ceil(20)..];
        Some(StreamSample {
            stream,
            queries,
            rounds: rounds.len(),
            wall_s: latency.iter().sum::<u64>() as f64 / 1e9,
            geomean_us: (log_sum / queries.max(1) as f64).exp(),
            slow5_us: tail.iter().sum::<u64>() as f64 / 1e3 / tail.len().max(1) as f64,
        })
    }
}

#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sample {
    /// One value per repetition of the set-up.
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// The simulated total of each stream (exact).
    pub sim_total_ms: Vec<f64>,
    /// One entry per stream and process.
    pub streams: Vec<StreamSample>,
    pub attempted: u64,
    pub failed: u64,
}

fn floats(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Float(v)).collect())
}

fn parse_floats(j: &Json, key: &str) -> Result<Vec<f64>, String> {
    let items = j
        .get(key)
        .and_then(Json::as_array)
        .ok_or(format!("missing array {key}"))?;
    items
        .iter()
        .map(|v| v.as_f64().ok_or(format!("{key}: not a number")))
        .collect()
}

fn parse_f64(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("missing number {key}"))
}

fn parse_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(Json::as_u64)
        .ok_or(format!("missing count {key}"))
}

impl Sample {
    pub fn to_json(&self) -> Json {
        let streams = self
            .streams
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("stream", Json::UInt(s.stream as u64)),
                    ("queries", Json::UInt(s.queries as u64)),
                    ("rounds", Json::UInt(s.rounds as u64)),
                    ("wall_s", Json::Float(s.wall_s)),
                    ("geomean_us", Json::Float(s.geomean_us)),
                    ("slow5_us", Json::Float(s.slow5_us)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("setup_s", floats(&self.setup_s)),
            ("peak_rss_mb", Json::Float(self.peak_rss_mb)),
            ("sim_total_ms", floats(&self.sim_total_ms)),
            ("streams", Json::Arr(streams)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
        ])
    }

    pub fn from_json(j: &Json) -> Result<Sample, String> {
        let streams = j
            .get("streams")
            .and_then(Json::as_array)
            .ok_or("missing array streams")?;
        Ok(Sample {
            setup_s: parse_floats(j, "setup_s")?,
            peak_rss_mb: parse_f64(j, "peak_rss_mb")?,
            sim_total_ms: parse_floats(j, "sim_total_ms")?,
            streams: streams
                .iter()
                .map(|s| {
                    Ok(StreamSample {
                        stream: parse_u64(s, "stream")? as usize,
                        queries: parse_u64(s, "queries")? as usize,
                        rounds: parse_u64(s, "rounds")? as usize,
                        wall_s: parse_f64(s, "wall_s")?,
                        geomean_us: parse_f64(s, "geomean_us")?,
                        slow5_us: parse_f64(s, "slow5_us")?,
                    })
                })
                .collect::<Result<_, String>>()?,
            attempted: parse_u64(j, "attempted")?,
            failed: parse_u64(j, "failed")?,
        })
    }

    /// Pool another process's sample of the same workload and seed into
    /// this one. The simulated totals are exact, so a pass that
    /// disagrees on them counts all of its operations as failed.
    pub fn merge(&mut self, other: Sample) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.sim_total_ms.is_empty() {
            self.sim_total_ms = other.sim_total_ms;
        } else if self.sim_total_ms != other.sim_total_ms {
            self.failed += other.attempted - other.failed;
        }
        self.setup_s.extend(other.setup_s);
        self.peak_rss_mb = self.peak_rss_mb.max(other.peak_rss_mb);
        self.streams.extend(other.streams);
    }

    /// Timed rounds behind the sample.
    pub fn rounds(&self) -> usize {
        self.streams.iter().map(|s| s.rounds).sum()
    }

    /// Mean over the streams of the fastest process's `value`.
    fn steady(&self, value: impl Fn(&StreamSample) -> f64) -> Option<f64> {
        let streams = self.streams.iter().map(|s| s.stream + 1).max()?;
        let per_stream: Option<Vec<f64>> = (0..streams)
            .map(|k| {
                let of_stream: Vec<f64> = self
                    .streams
                    .iter()
                    .filter(|s| s.stream == k)
                    .map(&value)
                    .collect();
                fastest(&of_stream)
            })
            .collect();
        mean(&per_stream?)
    }

    /// Every end-to-end metric; `None` when a stream has no timed round
    /// or the set-up was never timed.
    pub fn end_to_end(&self) -> Option<Values> {
        let s_per_query = self.steady(|s| s.wall_s / s.queries as f64)?;
        Some(Values::from([
            ("queries_per_s", 1.0 / s_per_query),
            ("query_geomean_us", self.steady(|s| s.geomean_us)?),
            ("query_slow5_us", self.steady(|s| s.slow5_us)?),
            ("sim_total_ms", mean(&self.sim_total_ms)?),
            ("peak_rss_mb", self.peak_rss_mb),
            ("setup_s", fastest(&self.setup_s)?),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_loop::{Exact, PlanKind, QueryObs, Step, Work};
    use crate::metrics::END_TO_END;

    fn stream(stream: usize, wall_s: f64) -> StreamSample {
        StreamSample {
            stream,
            queries: 100,
            rounds: 2,
            wall_s,
            geomean_us: wall_s * 1e4,
            slow5_us: wall_s * 3e4,
        }
    }

    fn sample() -> Sample {
        Sample {
            setup_s: vec![0.5, 0.4, 0.9],
            peak_rss_mb: 300.0,
            sim_total_ms: vec![100.0, 300.0],
            streams: vec![
                stream(0, 1.0),
                stream(1, 4.0),
                stream(0, 2.0),
                stream(1, 4.0),
                stream(0, 3.0),
            ],
            attempted: 500,
            failed: 0,
        }
    }

    /// A round of queries with the given (optimize, tune) nanoseconds;
    /// execute is 100 ns throughout.
    fn round(times: &[(u64, u64)]) -> Round {
        let queries = times
            .iter()
            .map(|&(optimize_ns, tune_ns)| QueryObs {
                optimize_ns,
                execute_ns: 100,
                tune_ns,
                step: Step::Profile,
                plan: PlanKind::SeqScan,
                rows: 0,
                tuples: 0,
                pages: 0,
            })
            .collect();
        Round {
            wall_ns: 0,
            queries,
            exact: Exact {
                sim_total_ms: 0.0,
                whatif_calls: 0,
                builds: 0,
                final_indices: Vec::new(),
            },
            work: Work {
                epochs: 0,
                drops: 0,
                whatif_skipped: 0,
                eqo_whatif_calls: 0,
                memo_hits: 0,
                memo_misses: 0,
                budget_peak_ratio: 0.0,
                index_bytes: 0,
                created: Vec::new(),
            },
        }
    }

    #[test]
    fn a_stream_takes_each_querys_fastest_repeat() {
        // 40 queries; query 0 is the slow one, disturbed in round a,
        // query 1 is disturbed in round b.
        let mut a = vec![(900, 1_000); 40];
        let mut b = a.clone();
        a[0] = (500_900, 9_000);
        b[0] = (100_900, 3_000);
        b[1] = (70_900, 1_000);
        let (a, b) = (round(&a), round(&b));
        let s = StreamSample::of(3, &[&a, &b]).expect("rounds");
        assert_eq!((s.stream, s.queries, s.rounds), (3, 40, 2));
        // 39 queries of 2 µs and one of 104 µs (its faster repeat).
        assert!((s.wall_s - (39.0 * 2_000.0 + 104_000.0) / 1e9).abs() < 1e-15);
        let geomean = ((39.0 * 2f64.ln() + 104f64.ln()) / 40.0).exp();
        assert!((s.geomean_us - geomean).abs() < 1e-9);
        // The slowest 5 % of 40 queries are two: 104 µs and 2 µs.
        assert_eq!(s.slow5_us, 53.0);
        assert_eq!(StreamSample::of(0, &[]), None);
    }

    #[test]
    fn end_to_end_averages_each_streams_fastest_process() {
        let v = sample().end_to_end().expect("complete sample");
        assert_eq!(v.len(), END_TO_END.len());
        assert!(END_TO_END.iter().all(|m| v.contains_key(m.name)));
        // Stream 0: the fastest of 1, 2, 3 s; stream 1: 4 s.
        assert!((v["queries_per_s"] - 100.0 / 2.5).abs() < 1e-9);
        assert!((v["query_geomean_us"] - 25_000.0).abs() < 1e-9);
        assert!((v["query_slow5_us"] - 75_000.0).abs() < 1e-9);
        assert_eq!(v["sim_total_ms"], 200.0);
        assert_eq!(v["setup_s"], 0.4);
        assert_eq!(v["peak_rss_mb"], 300.0);
        assert_eq!(sample().rounds(), 10);
    }

    #[test]
    fn a_stream_without_rounds_gives_no_metrics() {
        let mut s = sample();
        s.streams.retain(|r| r.stream != 0);
        assert_eq!(s.end_to_end(), None);
        assert_eq!(Sample::default().end_to_end(), None);
    }

    #[test]
    fn json_round_trips_and_merge_pools() {
        let s = sample();
        let text = s.to_json().pretty();
        let back =
            Sample::from_json(&colt_core::json::parse(&text).expect("json")).expect("sample");
        assert_eq!(back, s);
        assert!(Sample::from_json(&Json::obj(vec![])).is_err());

        let mut pooled = Sample::default();
        pooled.merge(s.clone());
        pooled.merge(s.clone());
        assert_eq!(pooled.streams.len(), 10);
        assert_eq!((pooled.attempted, pooled.failed), (1000, 0));
        assert_eq!(pooled.end_to_end().expect("metrics")["sim_total_ms"], 200.0);

        // A pass whose exact totals differ fails all of its operations.
        let mut other = s;
        other.sim_total_ms[0] += 1.0;
        pooled.merge(other);
        assert_eq!((pooled.attempted, pooled.failed), (1500, 500));
    }
}
