//! Seeded violation: a `cfg(feature = "telemetry")` gate leaking into an
//! instrumented crate. Downstream crates must use the always-compiling
//! flexsp-telemetry macros (e.g. `span!`) instead of gating inline.

pub fn serve() {
    #[cfg(feature = "telemetry")] // line 6: inline telemetry gate
    let t0 = crate::now_us();
    work();
    #[cfg(feature = "telemetry")] // line 9: inline telemetry gate
    crate::record(t0);
}

fn work() {}
