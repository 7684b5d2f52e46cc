//! One process = one workload: set-up, oracles, warm-up, rounds.
//!
//! Both kinds of run share this module: the untraced run that yields
//! the end-to-end [`Sample`], and the traced run whose rounds alternate
//! between plain, traced and fully recorded so that [`crate::layers`]
//! can report per-layer numbers and the overhead of observing.

use crate::closed_loop::{experiment_oracle, reference_rows, run_round, Exact, Round};
use crate::sample::{Sample, StreamSample};
use crate::spans::Tracer;
use crate::stats::percentile_ns;
use crate::workloads::{Workload, SCALE, STREAMS_TRACED};
use colt_catalog::Database;
use colt_workload::{Preset, TpchData};
use std::time::Instant;

/// How many times a run sets up again while it measures, at even
/// intervals over the rounds phase, so that the set-up is sampled across
/// the same window as the queries.
const SETUP_REPS: usize = 40;

/// Spans a traced run keeps (and writes out: some 10 MB). Traced rounds
/// that start after the trace holds this many record theirs into a
/// scratch trace that is dropped, so they cost what the kept ones cost.
const SPANS_KEPT: usize = 100_000;

/// How long the rounds phase lasts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// Start rounds until this much time has passed (and every stream
    /// has had one).
    Seconds(f64),
    /// Exactly this many rounds.
    Rounds(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub limit: Limit,
    pub traced: bool,
    /// Smoke run: one stream, one set-up, no warm-up round.
    pub quick: bool,
}

/// How a round is observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// No recorder, no spans: what end-to-end metrics are measured on.
    Plain,
    /// The benchmark's spans plus a `Level::Summary` recorder for the
    /// program's own counters.
    Traced,
    /// A `Level::Full` recorder, as under `COLT_OBS=full`.
    FullRecorder,
}

/// A query stream and what every round over it must reproduce.
pub struct Stream {
    pub preset: Preset,
    pub rows: Vec<u64>,
    pub exact: Exact,
}

pub struct MeasuredRound {
    pub stream: usize,
    pub mode: Mode,
    pub round: Round,
    /// The program's counters (traced rounds only).
    pub snapshot: Option<colt_obs::Snapshot>,
}

/// Everything one process measured on its data set.
pub struct Run<'a> {
    pub db: &'a Database,
    pub streams: Vec<Stream>,
    /// Wall time of the warm-up round.
    pub warmup_wall_s: f64,
    /// The process's peak resident set once stream 0 has been through
    /// everything a stream goes through (see [`Run::execute`]).
    pub peak_rss_mb: f64,
    pub rounds: Vec<MeasuredRound>,
    /// Seconds (`generate`, streams) of every set-up repeated during
    /// the rounds phase.
    pub set_ups: Vec<(f64, f64)>,
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
}

/// Queries of `round` that did not come out as they must: all of them
/// when the round's exact totals differ from the oracle's (a
/// non-deterministic round), else those with a wrong row count.
fn failed_queries(round: &Round, stream: &Stream) -> u64 {
    if round.exact != stream.exact {
        return round.queries.len() as u64;
    }
    round
        .queries
        .iter()
        .zip(&stream.rows)
        .filter(|(q, &rows)| q.rows != rows)
        .count() as u64
}

impl RunArgs {
    fn n_streams(&self) -> usize {
        match (self.quick, self.traced) {
            (true, _) => 1,
            (false, true) => STREAMS_TRACED,
            (false, false) => self.workload.streams,
        }
    }

    /// The set-up a user pays before the first query: the data set
    /// (generation includes `analyze`) and the run's query streams.
    /// Returns them with the seconds each took.
    pub fn set_up(&self) -> (TpchData, Vec<Preset>, (f64, f64)) {
        let t0 = Instant::now();
        let data = colt_workload::generate(SCALE, self.seed);
        let t1 = Instant::now();
        let presets: Vec<Preset> = (0..self.n_streams())
            .map(|k| self.workload.stream(&data, self.seed, k))
            .collect();
        let times = ((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64());
        (data, presets, times)
    }

    /// Seconds between two set-ups of the rounds phase; `None` when the
    /// run is not limited by time (a smoke run, a pass of so many rounds).
    fn set_up_every(&self) -> Option<f64> {
        match self.limit {
            Limit::Seconds(s) if !self.quick => Some(s / SETUP_REPS as f64),
            _ => None,
        }
    }
}

impl<'a> Run<'a> {
    pub fn execute(args: &RunArgs, db: &'a Database, presets: Vec<Preset>) -> Result<Self, String> {
        let mut run = Run {
            db,
            streams: Vec::with_capacity(presets.len()),
            warmup_wall_s: 0.0,
            peak_rss_mb: 0.0,
            rounds: Vec::new(),
            set_ups: Vec::new(),
            tracer: Tracer::new(),
            attempted: 0,
            failed: 0,
        };
        for preset in presets {
            // Oracles, untimed.
            let (rows, disagreements) =
                reference_rows(db, &preset.queries).map_err(|e| format!("reference pass: {e}"))?;
            let exact =
                experiment_oracle(db, &preset).map_err(|e| format!("Experiment::run: {e}"))?;
            run.attempted += rows.len() as u64;
            run.failed += disagreements;
            run.streams.push(Stream {
                preset,
                rows,
                exact,
            });

            if run.streams.len() == 1 {
                // Warm-up: the first round after set-up is dominated by
                // first-touch page faults, so one round is never timed
                // (a smoke run has no time for it; its oracles have
                // touched the data).
                if !args.quick {
                    if let Some(warmup) = run.round(0, Mode::Plain) {
                        run.warmup_wall_s = warmup.round.wall_ns as f64 / 1e9;
                    }
                }
                // Memory is read here, after one stream's oracles and
                // one round. Index builds leave the allocator's heap
                // fragmented by an amount that differs from stream to
                // stream (one in thirty adds 80 MB on `shifting`); a
                // peak over all of a run's streams would jump between
                // seeds by a quarter.
                run.peak_rss_mb = peak_rss_mb();
            }
        }
        let n_streams = run.streams.len();

        // Rounds, interleaving the streams (and, when traced, the
        // modes) so each is sampled across the whole window; so is the
        // set-up, repeated on a data set of its own that is dropped at
        // once.
        let modes: &[Mode] = if args.traced {
            &[Mode::Plain, Mode::Traced, Mode::FullRecorder]
        } else {
            &[Mode::Plain]
        };
        let one_of_each = modes.len() * n_streams;
        let set_up_every = args.set_up_every();
        let started = Instant::now();
        let mut i = 0;
        while match args.limit {
            Limit::Seconds(s) => i < one_of_each || started.elapsed().as_secs_f64() < s,
            Limit::Rounds(n) => i < n,
        } {
            let (mode, stream) = (modes[i % modes.len()], (i / modes.len()) % n_streams);
            if let Some(round) = run.round(stream, mode) {
                run.rounds.push(round);
            }
            i += 1;
            let due = (run.set_ups.len() + 1) as f64;
            if set_up_every.is_some_and(|every| started.elapsed().as_secs_f64() >= every * due) {
                run.set_ups.push(args.set_up().2);
            }
        }
        Ok(run)
    }

    /// Run and check one round; `None` (with its queries counted as
    /// failed) when the executor returned an error.
    fn round(&mut self, stream: usize, mode: Mode) -> Option<MeasuredRound> {
        let s = &self.streams[stream];
        let id = self.rounds.len() as u32;
        let level = match mode {
            Mode::Plain => None,
            Mode::Traced => Some(colt_obs::Level::Summary),
            Mode::FullRecorder => Some(colt_obs::Level::Full),
        };
        if let Some(level) = level {
            colt_obs::install(colt_obs::Recorder::new(level));
        }
        let kept = mode == Mode::Traced && self.tracer.spans.len() < SPANS_KEPT;
        let mut scratch = Tracer::new();
        let tracer = if kept { &mut self.tracer } else { &mut scratch };
        let result = run_round(self.db, &s.preset, id, (mode == Mode::Traced).then_some(tracer));
        // The counters are exact, so those of the kept rounds will do.
        let recorded = colt_obs::take().filter(|_| kept);
        let snapshot = recorded.map(colt_obs::Recorder::into_snapshot);

        self.attempted += s.preset.queries.len() as u64;
        match result {
            Ok(round) => {
                self.failed += failed_queries(&round, s);
                Some(MeasuredRound {
                    stream,
                    mode,
                    round,
                    snapshot,
                })
            }
            Err(e) => {
                eprintln!("round {id} of stream {stream} failed: {e}");
                self.failed += s.preset.queries.len() as u64;
                None
            }
        }
    }

    fn plain_rounds(&self) -> impl Iterator<Item = &MeasuredRound> {
        self.rounds.iter().filter(|r| r.mode == Mode::Plain)
    }

    /// The end-to-end sample, but for the set-up times, which the
    /// caller measures: plain rounds only.
    pub fn sample(&self) -> Sample {
        let streams = (0..self.streams.len())
            .filter_map(|k| {
                let rounds: Vec<&Round> = self
                    .plain_rounds()
                    .filter(|r| r.stream == k)
                    .map(|r| &r.round)
                    .collect();
                StreamSample::of(k, &rounds)
            })
            .collect();
        Sample {
            setup_s: Vec::new(),
            peak_rss_mb: self.peak_rss_mb,
            sim_total_ms: self.streams.iter().map(|s| s.exact.sim_total_ms).collect(),
            streams,
            attempted: self.attempted,
            failed: self.failed,
        }
    }

    /// A percentile of the loop latency pooled over every plain round,
    /// in µs, with its sample count. Printed, not gated: these streams'
    /// latencies fall into a few classes (index scan, small-table scan,
    /// large-table scan, build stall), and a percentile that sits at a
    /// class boundary jumps between the two classes from seed to seed.
    pub fn pooled_percentile_us(&self, p: f64) -> Option<(f64, usize)> {
        let mut all: Vec<u64> = self
            .plain_rounds()
            .flat_map(|r| &r.round.queries)
            .map(|q| q.latency_ns())
            .collect();
        let n = all.len();
        percentile_ns(&mut all, p).map(|ns| (ns as f64 / 1e3, n))
    }
}

/// The process's peak resident set (`VmHWM`) in MB; 0 where `/proc` does
/// not say.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(name: &'static str, limit: Limit, traced: bool) -> RunArgs {
        RunArgs {
            workload: Workload::by_name(name).expect("known workload"),
            seed: 3,
            limit,
            traced,
            quick: true,
        }
    }

    #[test]
    fn a_quick_run_is_checked_and_complete() {
        let args = args("shifting", Limit::Rounds(2), false);
        let (data, presets, times) = args.set_up();
        assert!(presets.len() == 1 && times.0 > 0.0 && times.1 > 0.0);
        assert_eq!(args.set_up_every(), None);
        let run = Run::execute(&args, &data.db, presets).expect("run");
        assert_eq!(run.rounds.len(), 2);
        // Reference pass + two rounds, nothing failed.
        assert_eq!((run.attempted, run.failed), (3 * 1350, 0));
        let mut sample = run.sample();
        assert_eq!((sample.streams.len(), sample.rounds()), (1, 2));
        assert_eq!(
            sample.end_to_end(),
            None,
            "set-up times are the caller's to fill in"
        );
        sample.setup_s.push(times.0 + times.1);
        let metrics = sample.end_to_end().expect("metrics");
        assert!(
            metrics.values().all(|v| v.is_finite() && *v > 0.0),
            "{metrics:?}"
        );
        let (p99, n) = run.pooled_percentile_us(99.0).expect("p99");
        assert!(n == 2 * 1350 && p99 >= metrics["query_geomean_us"]);
    }

    #[test]
    fn a_traced_run_cycles_the_modes_and_a_wrong_round_fails_its_queries() {
        let args = args("joins", Limit::Seconds(0.0), true);
        let (data, presets, _) = args.set_up();
        let mut run = Run::execute(&args, &data.db, presets).expect("run");
        let modes: Vec<Mode> = run.rounds.iter().map(|r| r.mode).collect();
        assert_eq!(modes, [Mode::Plain, Mode::Traced, Mode::FullRecorder]);
        assert!(run.rounds[1]
            .snapshot
            .as_ref()
            .is_some_and(|s| s.counter("storage.heap.scans") > 0));
        assert!(run.rounds[0].snapshot.is_none());
        assert!(!run.tracer.spans.is_empty());
        assert_eq!(run.failed, 0);

        let n = run.streams[0].rows.len() as u64;
        run.streams[0].rows[7] += 1;
        assert_eq!(failed_queries(&run.rounds[0].round, &run.streams[0]), 1);
        run.streams[0].exact.sim_total_ms += 1.0;
        assert_eq!(failed_queries(&run.rounds[0].round, &run.streams[0]), n);
    }
}
