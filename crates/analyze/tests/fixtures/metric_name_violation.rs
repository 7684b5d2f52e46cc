//! analyze-fixture: path=crates/engine/src/fixture.rs expect=metric-name
pub fn run() {
    // Malformed: single segment, no area.
    colt_obs::counter("rows", 1);
    // Mis-owned: tuner.* belongs to colt-core, not colt-engine.
    colt_obs::span_sim("tuner.budget.spent", 1.0);
    // Unknown area prefix.
    colt_obs::counter("enginex.cache.fill", 1);
    // Literal inside a match arm is still a metric name.
    colt_obs::counter(
        match 1 {
            1 => "engine.op.seq_scan",
            _ => "BadName.Mixed",
        },
        1,
    );
}
