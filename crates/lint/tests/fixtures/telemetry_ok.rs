//! Clean twin of `telemetry_bad.rs`: the timing comes from a
//! flexsp-telemetry span, whose feature gate lives in that crate, so
//! this file compiles identically with telemetry on or off.

pub fn serve() {
    let _span = tel::span!(tel::Category::Cache, "fixture.serve");
    work();
}

fn work() {}
