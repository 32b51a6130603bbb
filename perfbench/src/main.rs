//! The repository's benchmark: one workload per run, against the
//! release build, seeded by `--seed`.
//!
//! ```text
//! sops-perfbench --workload sweep_cold|serve_warm|stream_large --seed N
//!                --seconds S --trace 0|1 --serve-bin PATH --work DIR
//! ```
//!
//! With `--trace 0` it prints every end-to-end metric; with `--trace 1`
//! it runs the same inputs with spans around the calls into each layer
//! and prints every per-layer metric (0 where the workload gives that
//! layer no work). The last line of stdout is the JSON result; a failed
//! check exits 1. `run.py` builds the binaries and supplies the last two
//! arguments; see `README.md`.

mod oracle;
mod recompose;
mod serve;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use util::{Metric, Outcome};

/// Every per-layer metric with its unit, in report order.
const PER_LAYER: &[(&str, &str)] = &[
    ("sim.ensemble_ms", "ms"),
    ("sim.particle_steps_per_s", "1/s"),
    ("sim.ensembles", "count"),
    ("frames.view_ms", "ms"),
    ("frames.spilled_mb", "MB"),
    ("reduce.step_ms", "ms"),
    ("reduce.configs_per_s", "1/s"),
    ("observers.step_ms", "ms"),
    ("estimate.ksg_ms", "ms"),
    ("estimate.kde_ms", "ms"),
    ("estimate.binned_ms", "ms"),
    ("estimate.discrete_ms", "ms"),
    ("estimate.gaussian_ms", "ms"),
    ("runner.ensemble_ms", "ms"),
    ("runner.unaccounted_ms", "ms"),
    ("runner.cells_per_s_1t", "1/s"),
    ("par.efficiency", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.store_ms", "ms"),
    ("cache.entries", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.stores", "count"),
    ("cache.evictions", "count"),
    ("broker.hit_us", "us"),
    ("broker.miss_ms", "ms"),
    ("broker.sim_passes", "count"),
    ("broker.cells_computed", "count"),
    ("broker.cells_cached", "count"),
    ("broker.cells_coalesced", "count"),
    ("serve.parse_us", "us"),
    ("serve.route_hit_us", "us"),
    ("serve.socket_ms", "ms"),
    ("serve.response_bytes", "bytes"),
    ("serve.hit_ms_p50", "ms"),
    ("serve.hit_ms_p90", "ms"),
    ("report.sweep_json_us", "us"),
];

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".into()),
        },
        serve_bin: get("--serve-bin")?.into(),
        work: get("--work")?.into(),
    })
}

fn run(args: &Args, program_start: Instant) -> Result<Outcome, String> {
    let workload = match args.workload.as_str() {
        "sweep_cold" => Some(sweep::SweepWorkload::sweep_cold()),
        "stream_large" => Some(sweep::SweepWorkload::stream_large()),
        "serve_warm" => None,
        other => return Err(format!("unknown workload '{other}'")),
    };
    if !args.trace {
        return match &workload {
            Some(w) => sweep::run_timed(w, args, program_start),
            None => serve::run_timed(args),
        };
    }
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut tr = trace::Tracer::new();
    let mut outcome = match &workload {
        Some(w) => sweep::run_traced(w, args, &mut layers, &mut tr)?,
        None => serve::run_traced(args, &mut layers, &mut tr)?,
    };
    let spans = args
        .work
        .join("trace")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tr.write(&spans)
        .map_err(|e| format!("write {}: {e}", spans.display()))?;
    outcome.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: layers.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect();
    Ok(outcome)
}

fn main() -> ExitCode {
    let program_start = util::mark_start();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("sops-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Spill files go to the temporary directory: keep them in the
    // benchmark's own work directory (set before any thread starts).
    let tmp = args.work.join("tmp");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("sops-perfbench: create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    std::env::set_var("TMPDIR", &tmp);
    match run(&args, program_start) {
        Ok(outcome) => {
            let passed = outcome.checks.passed();
            eprintln!(
                "{}: {} check(s), {} failed",
                args.workload,
                outcome.checks.ran(),
                outcome.checks.failures()
            );
            println!("{}", outcome.json());
            if passed {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sops-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
