//! Spans of the traced run, kept as `soteria_telemetry` traces: one
//! `TraceBuilder` per request (or per training or set-up), with the
//! request as its id, finished into a `Trace` when that unit of work ends.
//! Nothing is written while a run measures; the traces are dumped as JSON
//! lines when the run ends.

use soteria_telemetry::{Trace, TraceBuilder};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Runs `f` as a stage of `trace` and returns its result.
pub fn timed<R>(
    trace: &mut TraceBuilder,
    name: &'static str,
    parent: Option<u32>,
    f: impl FnOnce() -> R,
) -> R {
    let stage = trace.begin(name, parent);
    let out = f();
    trace.end(stage);
    out
}

/// Durations in ms of every stage called `name`.
pub fn durations(traces: &[Trace], name: &str) -> Vec<f64> {
    traces
        .iter()
        .flat_map(|t| &t.stages)
        .filter(|s| s.name == name)
        .map(|s| s.dur_ms)
        .collect()
}

/// Duration in ms of the stage called `name`, by trace id, for traces
/// that hold one such stage.
pub fn by_id(traces: &[Trace], name: &str) -> BTreeMap<u64, f64> {
    traces
        .iter()
        .flat_map(|t| {
            t.stages
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (t.id, s.dur_ms))
        })
        .collect()
}

/// Writes one JSON line per trace (`Trace::to_json_line`: the id, then
/// each stage's name, parent, start offset and duration in ms).
pub fn write_jsonl<'a>(
    path: &Path,
    traces: impl IntoIterator<Item = &'a Trace>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in traces {
        writeln!(out, "{}", t.to_json_line())?;
    }
    out.flush()
}
