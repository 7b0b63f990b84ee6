//! # polyprof-bench — the paper's regenerators and the replay tools
//!
//! One binary per paper artifact (`fig2`, `fig3`, `fig4`, `fig7`,
//! `table1_2`, `table3`, `table4`, `table5`, `ablation`) regenerates the
//! corresponding table or figure from the reproduction; `record_trace` and
//! `refold` drive the CI replay gate; `overhead_gate` enforces the telemetry
//! budgets. Shared helpers live here. Performance numbers are not this
//! crate's job: `perf_ledger/` is the repository's one benchmark.

pub mod sentinel;
pub mod trace;

use polyiiv::CtxElem;
use polyir::Program;
use std::time::Instant;

/// The fixed workload set the trace-recording binaries (`record_trace`,
/// `refold`) and the CI replay gate operate on: four Rodinia kernels plus
/// the paper's Fig. 6 running example, at small deterministic sizes so the
/// `.ptrace` fixtures stay cache-friendly. Sizes are fixed — a recording must
/// mean the same thing whichever environment replays it.
pub fn replay_workloads() -> Vec<(&'static str, Program)> {
    vec![
        ("backprop", rodinia::backprop::build().program),
        ("pathfinder", rodinia::pathfinder::build().program),
        ("nw", rodinia::nw::build().program),
        ("hotspot", rodinia::hotspot::build().program),
        ("fig6", rodinia::paper_examples::fig6_kernel(16, 8)),
    ]
}

/// Human-readable names for context elements given the program (used by the
/// fig3 trace printer and flame graphs).
pub fn ctx_namer<'p>(
    prog: &'p Program,
    structure: &'p polycfg::StaticStructure,
) -> impl Fn(&CtxElem) -> String + 'p {
    move |e: &CtxElem| match e {
        CtxElem::Block(b) => {
            let f = prog.func(b.func);
            format!("{}{}", f.name, b.block.0)
        }
        CtxElem::Loop(polycfg::LoopRef::Cfg(f, l)) => {
            let func = prog.func(*f);
            let header = structure.forest(*f).info(*l).header;
            format!("L[{}:{}]", func.name, func.block(header).name)
        }
        CtxElem::Loop(polycfg::LoopRef::Rec(c)) => format!("Lrec{}", c.0),
    }
}

/// Wall-time of `reps` runs of `f` (after one warm-up), in seconds.
pub fn time_runs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// Format a speedup comparison line.
pub fn speedup_line(label: &str, base: f64, improved: f64) -> String {
    format!(
        "{label:<42} {base:>10.4}s → {improved:>10.4}s   speedup {:.2}x",
        base / improved
    )
}

/// Percent formatter.
pub fn pct(x: f64) -> String {
    if x.is_nan() {
        "-".into()
    } else {
        format!("{:.0}%", 100.0 * x)
    }
}

/// Minimal hand-rolled JSON object builder for machine-readable output
/// (`record_trace`/`refold` status lines, `perf_ledger`'s results): flat or
/// one-level-nested objects of strings and numbers. String values go through
/// `polytrace::json_escape`, so quote- or control-character-bearing workload
/// names stay valid JSON.
#[derive(Debug, Default)]
pub struct JsonObj {
    fields: Vec<(String, String)>,
}

impl JsonObj {
    /// Empty object.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, k: &str, raw: String) -> &mut Self {
        self.fields.push((k.to_string(), raw));
        self
    }

    /// Add a string field (fully escaped — quotes, backslashes, controls).
    pub fn str_field(&mut self, k: &str, v: &str) -> &mut Self {
        let escaped = polytrace::json_escape(v);
        self.push(k, format!("\"{escaped}\""))
    }

    /// Add an integer field.
    pub fn int_field(&mut self, k: &str, v: u64) -> &mut Self {
        self.push(k, v.to_string())
    }

    /// Add a float field (JSON has no NaN/Inf; those render as null).
    pub fn num_field(&mut self, k: &str, v: f64) -> &mut Self {
        if v.is_finite() {
            self.push(k, format!("{v}"))
        } else {
            self.push(k, "null".to_string())
        }
    }

    /// Add a pre-rendered JSON value verbatim (e.g. a
    /// `polytrace::RunMetrics::to_json` object). The caller guarantees it
    /// is valid JSON.
    pub fn raw_field(&mut self, k: &str, raw: &str) -> &mut Self {
        self.push(k, raw.trim().to_string())
    }

    /// Add a nested object field.
    pub fn obj_field(&mut self, k: &str, f: impl FnOnce(&mut JsonObj)) -> &mut Self {
        let mut inner = JsonObj::new();
        f(&mut inner);
        let rendered = inner.render();
        self.push(k, rendered)
    }

    /// Render as a JSON object string.
    pub fn render(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", polytrace::json_escape(k)))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression pin: a workload name carrying quotes, backslashes, and
    /// control characters must render as valid JSON (previously only `"` and
    /// `\` were escaped — a newline in a name produced a broken artifact).
    #[test]
    fn str_field_escapes_quotes_and_controls() {
        let mut o = JsonObj::new();
        o.str_field("workload", "back\"prop\"\n\t\\v1\u{1}");
        let s = o.render();
        assert_eq!(s, "{\"workload\": \"back\\\"prop\\\"\\n\\t\\\\v1\\u0001\"}");
        assert!(!s.contains('\n'), "raw control chars must not leak");
        sentinel::validate_json(&s).expect("escaped output must be valid JSON");
    }

    #[test]
    fn helpers() {
        assert_eq!(pct(0.5), "50%");
        assert_eq!(pct(f64::NAN), "-");
        let s = speedup_line("x", 2.0, 1.0);
        assert!(s.contains("2.00x"));
        let t = time_runs(2, || {
            std::hint::black_box(1 + 1);
        });
        assert!(t >= 0.0);
    }
}
