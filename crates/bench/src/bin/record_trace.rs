//! Record `.ptrace` fixtures for the CI replay gate.
//!
//! Profiles every [`polyprof_bench::replay_workloads`] entry with a
//! recorder tap and writes one recording per workload into a directory
//! (default `traces/`). Existing recordings whose header matches the
//! current format version and program id are kept (so an `actions/cache`
//! hit skips all work); pass `--force` to re-record regardless.
//!
//! `--print-key` prints a single cache-key line derived from the format
//! version and every workload's program id — exactly the inputs that
//! invalidate a recording — and exits without recording anything.
//!
//! Usage: `record_trace [--dir DIR] [--force] [--print-key]`

use polyprof_bench::{replay_workloads, JsonObj};
use polyprof_core::polyrec::codec::Fnv1a;
use polyprof_core::polyrec::{program_id, TraceReader, FORMAT_VERSION};
use polyprof_core::{try_profile_with, ProfileConfig};
use std::path::{Path, PathBuf};

/// One FNV-1a-64 over the format version and the per-workload program ids:
/// the replay-gate cache key.
fn cache_key(workloads: &[(&'static str, polyir::Program)]) -> String {
    let mut h = Fnv1a::new();
    h.write(&FORMAT_VERSION.to_le_bytes());
    for (name, prog) in workloads {
        h.write(name.as_bytes());
        h.write(&program_id(prog).to_le_bytes());
    }
    format!("polyrec-v{FORMAT_VERSION}-{:016x}", h.finish())
}

/// An existing recording is fresh when it opens under the current format
/// version and its header's program id matches the program we would
/// re-record.
fn is_fresh(path: &Path, prog: &polyir::Program) -> bool {
    match TraceReader::open(path) {
        Ok(reader) => reader.meta().program_id == program_id(prog),
        Err(_) => false,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = PathBuf::from("traces");
    let mut force = false;
    let mut print_key = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--dir" => {
                i += 1;
                dir = PathBuf::from(args.get(i).expect("--dir needs a value"));
            }
            "--force" => force = true,
            "--print-key" => print_key = true,
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: record_trace [--dir DIR] [--force] [--print-key]");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let workloads = replay_workloads();
    if print_key {
        println!("{}", cache_key(&workloads));
        return;
    }

    std::fs::create_dir_all(&dir).expect("create trace directory");
    for (name, prog) in &workloads {
        let path = dir.join(format!("{name}.ptrace"));
        if !force && is_fresh(&path, prog) {
            let mut j = JsonObj::new();
            j.str_field("workload", name)
                .str_field("trace", &path.display().to_string())
                .str_field("status", "fresh");
            println!("{}", j.render());
            continue;
        }
        let cfg = ProfileConfig::new().with_record_to(&path);
        let report = match try_profile_with(prog, &cfg) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("record_trace: {name}: {e}");
                std::process::exit(1);
            }
        };
        let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
        let mut j = JsonObj::new();
        j.str_field("workload", name)
            .str_field("trace", &path.display().to_string())
            .str_field("status", "recorded")
            .int_field("bytes", bytes)
            .int_field("dyn_ops", report.folded_stats.2);
        println!("{}", j.render());
    }
}
