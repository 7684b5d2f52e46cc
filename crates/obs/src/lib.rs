//! # colt-obs
//!
//! Zero-dependency observability for the COLT reproduction: a
//! global-free metrics [`Recorder`] (counters, per span name its count
//! and simulated milliseconds, and the folded-stack flame — the one
//! wall-time account, read per frame with [`Snapshot::frame_ns`]), RAII
//! [`Span`] guards that push and pop flame frames, with explicit
//! simulated-clock attribution, the flight recorder's typed
//! [`DecisionRecord`]s, a
//! [`progress`] sink that replaces ad-hoc `eprintln!` diagnostics with
//! one stderr format across every binary, and the workspace's one
//! [`json`] writer and parser. [`json::Json`] is the crate's one value
//! type: an [`Event`]'s and a [`DecisionRecord`]'s fields are `Json`, and
//! every line of a [`Snapshot`]'s one serialisation, [`Snapshot::jsonl`],
//! goes through the writer behind [`json::Json::pretty`], so
//! [`json::parse`] reads each line back to the values that wrote it.
//!
//! A span names one interval of work, once, on the code that does the
//! work: a caller opens no span of its own around a call that opens one
//! (the harness's run loop leaves optimizing and executing to
//! `engine.optimize` and `engine.execute`), and a count that a span's
//! calls already state gets no counter beside it.
//!
//! ## Deployment model
//!
//! There is **no global mutable state**: a [`Recorder`] is plain owned
//! data. Instrumented code reaches the recorder through a thread-local
//! slot ([`install`] / [`take`]); a driver that wants metrics installs
//! a recorder around the region it measures and takes the snapshot out
//! afterwards. The parallel harness installs one recorder per run cell
//! on the worker thread that executes it and merges the per-cell
//! [`Snapshot`]s after the threads join — there are no locks or shared
//! caches on the hot path.
//!
//! When no recorder is installed (or an [`Level::Off`] recorder is),
//! every instrumentation call is a thread-local flag check and nothing
//! else, so uninstrumented binaries and `COLT_OBS=off` runs pay
//! near-zero overhead.
//!
//! ## Levels (`COLT_OBS`)
//!
//! * `off` — no recording, no stderr output from the sink.
//! * `summary` (default) — metrics are recorded; progress events print
//!   one compact human line each to stderr.
//! * `full` — metrics are recorded; progress events print as one-line
//!   JSON (JSONL) to stderr.
//!
//! **No level ever writes to stdout**, so experiment artifacts remain
//! byte-identical across levels and thread counts.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod ledger;
pub mod recorder;

pub use event::Event;
pub use ledger::{DecisionKind, DecisionLedger, DecisionRecord, EpochPoint, TimeSeries};
pub use recorder::{Recorder, Snapshot, SpanStats};

use std::cell::{Cell, RefCell};
use std::sync::OnceLock;

/// Observability level, selected by the `COLT_OBS` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Level {
    /// Record nothing, print nothing.
    Off,
    /// Record metrics; print progress events as compact human lines.
    #[default]
    Summary,
    /// Record metrics; print progress events as one-line JSON (JSONL).
    Full,
}

impl Level {
    /// Parse `"off"` / `"summary"` / `"full"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(Level::Off),
            "summary" => Some(Level::Summary),
            "full" => Some(Level::Full),
            _ => None,
        }
    }

    /// The level selected by `COLT_OBS` (default [`Level::Summary`];
    /// unrecognized values also fall back to the default — a library
    /// cannot stop the process; the colt-bench binaries reject them
    /// before any work starts). The value is read once per process.
    pub fn from_env() -> Level {
        static ENV: OnceLock<Level> = OnceLock::new();
        #[expect(clippy::disallowed_methods, reason = "COLT_OBS sets stderr verbosity only")]
        *ENV.get_or_init(|| {
            std::env::var("COLT_OBS").ok().and_then(|s| Level::parse(&s)).unwrap_or_default()
        })
    }
}

thread_local! {
    /// Fast-path cache: 0 = nothing to do (no recorder, or an Off
    /// recorder), 1 = Summary recorder installed, 2 = Full.
    static ACTIVE: Cell<u8> = const { Cell::new(0) };
    static CURRENT: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

fn level_byte(level: Level) -> u8 {
    match level {
        Level::Off => 0,
        Level::Summary => 1,
        Level::Full => 2,
    }
}

/// Install a recorder into this thread's slot, returning the previously
/// installed one (to be re-installed when the measured region ends).
pub fn install(recorder: Recorder) -> Option<Recorder> {
    ACTIVE.with(|a| a.set(level_byte(recorder.level())));
    CURRENT.with(|c| c.replace(Some(recorder)))
}

/// Remove and return this thread's recorder (its snapshot is taken with
/// [`Recorder::into_snapshot`]). Recording stops until the next
/// [`install`].
pub fn take() -> Option<Recorder> {
    ACTIVE.with(|a| a.set(0));
    CURRENT.with(|c| c.take())
}

/// True when an active (non-[`Level::Off`]) recorder is installed on
/// this thread.
pub fn is_enabled() -> bool {
    ACTIVE.with(|a| a.get() > 0)
}

/// The level governing stderr emission on this thread: the installed
/// recorder's level when one is present, else the `COLT_OBS`
/// environment level. Threads without a recorder (e.g. a bench binary's
/// main thread) still get uniformly formatted progress output.
pub fn sink_level() -> Level {
    CURRENT.with(|c| c.borrow().as_ref().map(Recorder::level)).unwrap_or_else(Level::from_env)
}

fn with_recorder<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    if !is_enabled() {
        return None;
    }
    CURRENT.with(|c| c.borrow_mut().as_mut().map(f))
}

/// Add `n` to a named counter.
pub fn counter(name: &'static str, n: u64) {
    with_recorder(|r| r.add_counter(name, n));
}

/// Open an RAII span guard: the span's frame is pushed onto the
/// recorder's flame stack now and popped, counting one completion, when
/// the guard drops. Its wall time is what the flame attributes to the
/// frame ([`Snapshot::frame_ns`]). Inert when recording is off, and
/// stays so if a recorder is installed before it drops.
pub fn span(name: &'static str) -> Span {
    let live = with_recorder(|r| r.flame_enter(name)).is_some();
    Span { name, live }
}

/// An open span; see [`span`].
#[must_use = "a span measures until it is dropped"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    live: bool,
}

impl Span {
    /// Attribute simulated milliseconds to this span (the deterministic
    /// clock has no ambient "now", so sites report it explicitly).
    pub fn sim_ms(&self, ms: f64) {
        if self.live {
            with_recorder(|r| r.record_span_sim(self.name, ms));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.live {
            with_recorder(|r| r.flame_exit(self.name));
        }
    }
}

/// Append a decision record to the installed recorder's flight-recorder
/// ledger; the record is stamped with the recorder's current epoch.
/// Sites that build non-trivial field sets should guard with
/// [`is_enabled`] to skip the construction cost when recording is off.
pub fn decision(record: DecisionRecord) {
    with_recorder(|r| r.record_decision(record));
}

/// Close epoch `epoch` in the installed recorder's flight recorder:
/// push the per-epoch metric deltas into the time series and stamp
/// subsequent decisions with `epoch + 1`. Call once per closed epoch
/// (the tuner does) plus once at run end to flush the trailing partial
/// epoch.
pub fn epoch_mark(epoch: u64) {
    with_recorder(|r| r.mark_epoch(epoch));
}

/// Print a progress event to stderr — the one stderr format every
/// binary shares: the compact human rendering at [`Level::Summary`],
/// JSONL at [`Level::Full`]. Nothing is retained; what the tuner
/// decided is in the ledger ([`decision`]).
pub fn progress(event: Event) {
    #[expect(clippy::print_stderr, reason = "the one sanctioned stderr sink")]
    match sink_level() {
        Level::Off => {}
        Level::Summary => eprintln!("{}", event.human()),
        Level::Full => eprintln!("{}", event.jsonl()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recording into an installed recorder and draining the snapshot.
    #[test]
    fn install_record_take() {
        assert!(!is_enabled());
        assert!(install(Recorder::new(Level::Full)).is_none());
        assert!(is_enabled());
        counter("c", 2);
        {
            let s = span("s");
            s.sim_ms(4.5);
        }
        let snap = take().unwrap().into_snapshot();
        assert!(!is_enabled());
        assert_eq!(snap.counter("c"), 2);
        assert_eq!(snap.span("s").unwrap().count, 1);
        assert_eq!(snap.span("s").unwrap().sim_ms, 4.5);
        assert!(snap.frame_ns("s") > 0);
    }

    /// A guard opened with recording off neither counts, nor charges
    /// simulated time, nor pops a frame once a recorder is installed.
    #[test]
    fn a_guard_opened_while_off_stays_inert_after_install() {
        let inert = span("s");
        install(Recorder::new(Level::Full));
        let live = span("s");
        inert.sim_ms(1.0);
        drop(inert);
        drop(span("inner"));
        drop(live);
        let snap = take().unwrap().into_snapshot();
        assert_eq!(snap.span("s").unwrap().count, 1);
        assert_eq!(snap.span("s").unwrap().sim_ms, 0.0);
        assert!(snap.flame.contains_key("s;inner"), "flame: {:?}", snap.flame);
        assert!(!snap.flame.contains_key("inner"), "flame: {:?}", snap.flame);
    }

    #[test]
    fn span_guards_populate_the_flame_accumulator() {
        install(Recorder::new(Level::Full));
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let snap = take().unwrap().into_snapshot();
        assert!(snap.flame.contains_key("outer;inner"), "flame: {:?}", snap.flame);
    }

    #[test]
    fn off_recorder_is_inert() {
        let prev = install(Recorder::new(Level::Off));
        assert!(prev.is_none());
        assert!(!is_enabled());
        counter("c", 1);
        let _s = span("s");
        decision(DecisionRecord::new(DecisionKind::Knapsack));
        drop(_s);
        let snap = take().unwrap().into_snapshot();
        assert!(snap.is_empty());
    }

    #[test]
    fn no_recorder_is_inert() {
        // Must not panic or leak state.
        counter("c", 1);
        span("s").sim_ms(1.0);
        drop(span("s"));
        progress(Event::new("p"));
        decision(DecisionRecord::new(DecisionKind::Knapsack));
        epoch_mark(0);
        assert!(take().is_none());
    }

    #[test]
    fn flight_recorder_records_through_the_thread_local() {
        install(Recorder::new(Level::Summary));
        decision(DecisionRecord::new(DecisionKind::Knapsack).field("spent_pages", 3u64));
        counter("c", 1);
        epoch_mark(0);
        decision(DecisionRecord::new(DecisionKind::IndexCreate));
        let snap = take().unwrap().into_snapshot();
        let records: Vec<(u64, DecisionKind)> =
            snap.ledger.records().map(|d| (d.epoch, d.kind)).collect();
        assert_eq!(records, [(0, DecisionKind::Knapsack), (1, DecisionKind::IndexCreate)]);
        assert_eq!(snap.series.len(), 1);
        assert_eq!(snap.series.counter_at(0, "c"), 1);
    }

    #[test]
    fn nested_install_restores() {
        install(Recorder::new(Level::Summary));
        counter("outer", 1);
        let prev = install(Recorder::new(Level::Full)).expect("outer recorder");
        counter("inner", 1);
        let inner = take().unwrap().into_snapshot();
        install(prev);
        counter("outer", 1);
        let outer = take().unwrap().into_snapshot();
        assert_eq!(inner.counter("inner"), 1);
        assert_eq!(inner.counter("outer"), 0);
        assert_eq!(outer.counter("outer"), 2);
    }

    #[test]
    fn level_parsing() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("SUMMARY"), Some(Level::Summary));
        assert_eq!(Level::parse(" full "), Some(Level::Full));
        assert_eq!(Level::parse("banana"), None);
        assert_eq!(Level::parse("0"), None);
        assert_eq!(Level::parse("2"), None);
        assert_eq!(Level::default(), Level::Summary);
    }
}
