//! analyze-fixture: path=crates/engine/src/fixture.rs expect=clean
pub fn run() {
    colt_obs::counter("engine.op.seq_scan", 1);
    colt_obs::span_sim("engine.exec.batch", 2.0);
    // colt: allow(metric-name) — legacy dashboard still scrapes the old flat name
    colt_obs::span_sim("fillfactor", 0.5);
}
