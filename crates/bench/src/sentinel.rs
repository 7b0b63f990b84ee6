//! `validate_json` lives in `polytrace`, beside the emitters it checks. This
//! path exists only because `perf_ledger/src/{main,spans}.rs` import
//! `polyprof_bench::sentinel::validate_json` and `perf_ledger/` is frozen
//! outside a `benchmark` PR; the next one repoints them and drops this module.

pub use polytrace::validate_json;
