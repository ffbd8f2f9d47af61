//! What is left of the span tracer: the repo has one tracer, the
//! benchmark's (`benchmark -- run --trace 1`).

/// Whether span tracing is compiled in: never. Kept only because
/// `benchmark/src/{surface,report}.rs` name it for the `context.features`
/// string; the `benchmark` PR that drops that key deletes this module.
pub const fn is_enabled() -> bool {
    false
}
