//! The in-process sweep workloads: `sweep_cold` (the builtin gallery at
//! registry scale, every measure family, no cache) and `stream_large`
//! (the collective-scale cell-sorting tier with spilled frames). Both
//! time `SweepRunner::run`, the engine behind `sops-repro sweep`.

use crate::recompose::{bit_identical, check_contact, recompose};
use crate::trace::Tracer;
use crate::util::{
    derive_seeds, median, ms_since, nproc, progress, vm_hwm_mb, Checks, Metric, Outcome,
};
use crate::Args;
use sops_core::scenario::{
    cell_sorting_xl, eval_schedule, measure_labels, EnsembleStorage, ScenarioRegistry,
    ScenarioSpec, SweepPlan, SweepReport, SweepRunner,
};
use sops_info::measure::MeasureConfig;
use sops_math::Vec2;
use sops_sim::streaming::{recycle_slice_vec, run_streaming_ensemble, StreamingConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Particles of the `stream_large` collective.
pub const LARGE_PARTICLES: usize = 10_000;

/// Horizon of `stream_large`'s set-up ensemble (and of the spill
/// oracle's pair of ensembles).
pub const LARGE_SHORT_T_MAX: usize = 10;

const STREAM_TIMED: u64 = 1;
const STREAM_WARM: u64 = 2;

/// One in-process sweep workload: a grid without a seed axis; every
/// operation sweeps it at one seed.
pub struct SweepWorkload {
    pub scenarios: Vec<ScenarioSpec>,
    pub measures: Vec<MeasureConfig>,
    pub storage: EnsembleStorage,
    /// Horizon of the set-up sweep (`None`: the workload's own).
    pub warm_t_max: Option<usize>,
}

impl SweepWorkload {
    /// The builtin gallery at registry scale × every measure family.
    pub fn sweep_cold() -> Self {
        SweepWorkload {
            scenarios: ScenarioRegistry::builtin().iter().cloned().collect(),
            measures: MeasureConfig::FAMILIES
                .iter()
                .map(|f| MeasureConfig::parse(f).expect("builtin family"))
                .collect(),
            storage: EnsembleStorage::default(),
            warm_t_max: None,
        }
    }

    /// `cell_sorting_xl` physics at [`LARGE_PARTICLES`] × `ksg`, with a
    /// resident-frame budget of half the scheduled frames, so every
    /// ensemble spills.
    pub fn stream_large() -> Self {
        let sc = cell_sorting_xl().with_particles(LARGE_PARTICLES);
        let scheduled = sc.ensemble.samples * sc.eval_times().len() * LARGE_PARTICLES * 16;
        SweepWorkload {
            scenarios: vec![sc],
            measures: vec![MeasureConfig::parse("ksg").expect("builtin family")],
            storage: EnsembleStorage::Streaming {
                max_resident_bytes: scheduled / 2,
            },
            warm_t_max: Some(LARGE_SHORT_T_MAX),
        }
    }

    /// The resident-frame budget, when it is below the scheduled frames
    /// of the workload's scenario, so that every ensemble spills.
    fn spill_budget(&self) -> Option<usize> {
        let EnsembleStorage::Streaming { max_resident_bytes } = self.storage else {
            return None;
        };
        let sc = &self.scenarios[0];
        let e = &sc.ensemble;
        let scheduled = e.samples * sc.eval_times().len() * e.model.particles() * 16;
        (scheduled > max_resident_bytes).then_some(max_resident_bytes)
    }

    fn plan(&self, seed: u64, threads: usize, t_max: Option<usize>) -> SweepPlan {
        let scenarios = self
            .scenarios
            .iter()
            .map(|s| match t_max {
                Some(t) => s.clone().with_scale(s.ensemble.samples, t),
                None => s.clone(),
            })
            .collect();
        SweepPlan {
            scenarios,
            measures: self.measures.clone(),
            seeds: vec![seed],
            threads,
            storage: self.storage,
        }
    }
}

/// Timed operations of one phase.
struct Timed {
    reports: Vec<(u64, SweepReport)>,
    latencies_ms: Vec<f64>,
    cells: u64,
    failed: u64,
    elapsed_s: f64,
}

/// Sweeps one seed per operation until `seconds` have passed (at least
/// one operation).
fn timed_phase(
    w: &SweepWorkload,
    runner: &mut SweepRunner,
    seeds: &[u64],
    threads: usize,
    seconds: f64,
) -> Result<Timed, String> {
    let mut t = Timed {
        reports: Vec::new(),
        latencies_ms: Vec::new(),
        cells: 0,
        failed: 0,
        elapsed_s: 0.0,
    };
    let start = Instant::now();
    for &seed in seeds {
        let op = Instant::now();
        let report = runner
            .run(&w.plan(seed, threads, None))
            .map_err(|e| format!("sweep at seed {seed}: {e}"))?;
        let ms = ms_since(op);
        progress(&format!("sweep at seed {seed}: {ms:.1} ms"));
        t.latencies_ms.push(ms);
        t.cells += report.cells.len() as u64;
        t.failed += report.failed_cells().len() as u64;
        t.reports.push((seed, report));
        t.elapsed_s = start.elapsed().as_secs_f64();
        if t.elapsed_s >= seconds {
            return Ok(t);
        }
    }
    Err("ran out of seeds before the run's time was up".into())
}

/// Set-up: a fresh runner sweeping the warm-up seed, [`SETUP_REPS`]
/// times (the first timed from program start). Returns the durations
/// and the last, warm runner.
fn set_up(
    w: &SweepWorkload,
    warm_seeds: &[u64],
    threads: usize,
    program_start: Instant,
    checks: &mut Checks,
) -> Result<(Vec<f64>, SweepRunner), String> {
    let mut times = Vec::new();
    let mut runner = SweepRunner::new();
    for (k, &seed) in warm_seeds.iter().enumerate() {
        let t = if k == 0 {
            program_start
        } else {
            Instant::now()
        };
        runner = SweepRunner::new();
        let report = runner
            .run(&w.plan(seed, threads, w.warm_t_max))
            .map_err(|e| format!("set-up sweep: {e}"))?;
        checks.check(!report.has_failures(), || {
            format!("set-up sweep at seed {seed} quarantined cells")
        });
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((times, runner))
}

/// Re-evaluates the first timed seed through the layer calls and checks
/// it against the timed report, plus the workload's oracles.
fn check_outputs(
    w: &SweepWorkload,
    first: &(u64, SweepReport),
    sim_threads: usize,
    checks: &mut Checks,
) -> usize {
    let mut tr = Tracer::new();
    let (seed, report) = first;
    let mut spilled = 0;
    for sc in &w.scenarios {
        let scenario = sc.clone().with_seed(*seed);
        let (results, observed) = recompose(
            &mut tr,
            0,
            &scenario,
            &w.measures,
            w.storage,
            sim_threads,
            checks,
        );
        spilled += observed.spilled_bytes;
        for (m, r) in w.measures.iter().zip(&results) {
            let cell = report.get(&sc.name, m.label(), Some(*seed));
            checks.check(cell.is_some_and(|c| bit_identical(&c.result, r)), || {
                format!(
                    "{} / {} seed {seed}: layer-by-layer result differs from SweepRunner::run",
                    sc.name,
                    m.label()
                )
            });
        }
        if let Some(contact) = observed.contact {
            let what = format!("{} seed {seed}", sc.name);
            check_contact(checks, &what, contact, sc.name != "mixing_null");
        }
    }
    spilled
}

/// KSG ΔI of `cell_sorting` exceeds that of `mixing_null`, seed by seed
/// (for workloads that sweep both).
fn check_ksg_order(w: &SweepWorkload, reports: &[(u64, SweepReport)], checks: &mut Checks) {
    let has = |name: &str| w.scenarios.iter().any(|s| s.name == name);
    if !(has("cell_sorting") && has("mixing_null")) {
        return;
    }
    for (seed, report) in reports {
        let sorting = report.get("cell_sorting", "ksg", Some(*seed));
        let null = report.get("mixing_null", "ksg", Some(*seed));
        let (Some(s), Some(n)) = (sorting, null) else {
            checks.check(false, || format!("seed {seed}: ksg cells missing"));
            continue;
        };
        let (ds, dn) = (s.result.mi.increase(), n.result.mi.increase());
        checks.check(ds > dn, || {
            format!("seed {seed}: ksg ΔI cell_sorting {ds} ≤ mixing_null {dn}")
        });
    }
}

/// Spilled frames equal in-memory frames bit for bit (set-up-horizon
/// ensembles of the `stream_large` scenario).
fn check_spill_roundtrip(
    w: &SweepWorkload,
    max_resident_bytes: usize,
    seed: u64,
    threads: usize,
    checks: &mut Checks,
) {
    let sc = &w.scenarios[0];
    let mut spec = sc.clone().with_seed(seed).ensemble;
    spec.t_max = LARGE_SHORT_T_MAX;
    let times = eval_schedule(LARGE_SHORT_T_MAX, sc.eval_every.min(LARGE_SHORT_T_MAX));
    let spilled = run_streaming_ensemble(
        &spec,
        &times,
        threads,
        &StreamingConfig { max_resident_bytes },
    );
    let memory = run_streaming_ensemble(&spec, &times, threads, &StreamingConfig::default());
    checks.check(spilled.is_spilled() && !memory.is_spilled(), || {
        "spill oracle: storage modes not as requested".into()
    });
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    let mut same =
        spilled.equilibrated_fraction().to_bits() == memory.equilibrated_fraction().to_bits();
    for &t in &times {
        let mut a: Vec<&[Vec2]> = recycle_slice_vec(Vec::new());
        let mut b: Vec<&[Vec2]> = recycle_slice_vec(Vec::new());
        spilled.at_time_into(t, &mut buf_a, &mut a);
        memory.at_time_into(t, &mut buf_b, &mut b);
        same &= a.len() == b.len()
            && a.iter().zip(&b).all(|(x, y)| {
                x.len() == y.len()
                    && x.iter().zip(y.iter()).all(|(p, q)| {
                        p.x.to_bits() == q.x.to_bits() && p.y.to_bits() == q.y.to_bits()
                    })
            });
    }
    checks.check(same, || {
        "spilled frames differ from in-memory frames".into()
    });
}

/// The timed (untraced) run of a sweep workload.
pub fn run_timed(
    w: &SweepWorkload,
    args: &Args,
    program_start: Instant,
) -> Result<Outcome, String> {
    let threads = nproc();
    let mut checks = Checks::default();
    let warm = derive_seeds(args.seed, STREAM_WARM, SETUP_REPS, &[]);
    let seeds = derive_seeds(args.seed, STREAM_TIMED, 4096, &warm);
    let (setup, mut runner) = set_up(w, &warm, threads, program_start, &mut checks)?;
    let timed = timed_phase(w, &mut runner, &seeds, threads, args.seconds)?;
    let peak_rss_mb = vm_hwm_mb(std::process::id())?;

    check_ksg_order(w, &timed.reports, &mut checks);
    let spilled = check_outputs(w, &timed.reports[0], threads, &mut checks);
    if let Some(budget) = w.spill_budget() {
        checks.check(spilled > 0, || {
            format!("no frames spilled under a {budget}-byte budget")
        });
        check_spill_roundtrip(w, budget, warm[0], threads, &mut checks);
        let e = &w.scenarios[0].ensemble;
        let retained_mb =
            (e.samples * (e.t_max + 1) * e.model.particles() * 16) as f64 / (1 << 20) as f64;
        checks.check(peak_rss_mb < retained_mb, || {
            format!("peak RSS {peak_rss_mb:.1} MB is not below the retained-trajectory footprint {retained_mb:.1} MB")
        });
    }

    let ops = timed.latencies_ms.len() as f64;
    Ok(Outcome {
        attempted: timed.cells,
        failed: timed.failed + checks.failures() as u64,
        checks,
        metrics: vec![
            Metric {
                name: "setup_s",
                value: median(&setup),
                unit: "s",
            },
            Metric {
                name: "cells_per_s",
                value: timed.cells as f64 / timed.elapsed_s,
                unit: "1/s",
            },
            Metric {
                name: "req_per_s",
                value: ops / timed.elapsed_s,
                unit: "1/s",
            },
            Metric {
                name: "req_ms_p50",
                value: median(&timed.latencies_ms),
                unit: "ms",
            },
            // Every sweep operation computes its cells.
            Metric {
                name: "miss_ms_p50",
                value: median(&timed.latencies_ms),
                unit: "ms",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MB",
            },
        ],
    })
}

/// The traced run of a sweep workload: a third of the time sweeps at
/// `nproc` threads untraced (for `par.efficiency`); the rest runs each
/// ensemble through `SweepRunner::run_cells` at one thread and again
/// through the layer calls, which must agree bit for bit.
pub fn run_traced(
    w: &SweepWorkload,
    args: &Args,
    layers: &mut BTreeMap<&'static str, f64>,
    tr: &mut Tracer,
) -> Result<Outcome, String> {
    let threads = nproc();
    let mut checks = Checks::default();
    let warm = derive_seeds(args.seed, STREAM_WARM, 1, &[]);
    let seeds = derive_seeds(args.seed, STREAM_TIMED, 4096, &warm);
    let (_, mut runner) = set_up(w, &warm, threads, Instant::now(), &mut checks)?;
    let par = timed_phase(w, &mut runner, &seeds, threads, args.seconds / 3.0)?;
    let cells_per_s_np = par.cells as f64 / par.elapsed_s;
    check_ksg_order(w, &par.reports, &mut checks);

    let labels = measure_labels(&w.measures);
    let start = Instant::now();
    let (mut ensembles, mut cells, mut failed) = (0u64, 0u64, par.failed);
    let mut spilled_bytes = 0usize;
    let (mut particle_steps, mut configs) = (0.0, 0.0);
    for &seed in &seeds {
        for sc in &w.scenarios {
            let scenario = sc.clone().with_seed(seed);
            let produced = tr.span("runner.run_cells", 0, || {
                runner.run_cells(&scenario, &w.measures, &labels, w.storage, 1)
            });
            let parent = tr.open("recomposed", 0);
            let (results, observed) = recompose(
                tr,
                parent,
                &scenario,
                &w.measures,
                w.storage,
                1,
                &mut checks,
            );
            tr.close(parent);
            ensembles += 1;
            cells += produced.len() as u64;
            failed += produced.iter().filter(|c| !c.status.is_ok()).count() as u64;
            spilled_bytes += observed.spilled_bytes;
            let e = &scenario.ensemble;
            particle_steps += (e.samples * e.t_max * e.model.particles()) as f64;
            configs += (e.samples * scenario.eval_times().len()) as f64;
            for (cell, r) in produced.iter().zip(&results) {
                checks.check(bit_identical(&cell.result, r), || {
                    format!(
                        "{} / {} seed {seed}: layer-by-layer result differs from run_cells",
                        sc.name, cell.measure_label
                    )
                });
            }
            if let Some(contact) = observed.contact {
                let what = format!("{} seed {seed}", sc.name);
                check_contact(&mut checks, &what, contact, sc.name != "mixing_null");
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds * 2.0 / 3.0 {
            break;
        }
    }

    let n = ensembles as f64;
    let stage_names = [
        "sim.ensemble",
        "frames.view",
        "reduce.step",
        "observers.step",
        "estimate.ksg",
        "estimate.kde",
        "estimate.binned",
        "estimate.discrete",
        "estimate.gaussian",
    ];
    let stages_ms: f64 = stage_names.iter().map(|s| tr.total_ms(s)).sum();
    let run_cells_ms = tr.total_ms("runner.run_cells");
    let cells_per_s_1t = cells as f64 / (run_cells_ms / 1e3);
    fill_pipeline_layers(
        layers,
        tr,
        particle_steps,
        configs,
        spilled_bytes as f64 / n,
    );
    layers.insert("runner.ensemble_ms", run_cells_ms / n);
    layers.insert("runner.unaccounted_ms", (run_cells_ms - stages_ms) / n);
    layers.insert("runner.cells_per_s_1t", cells_per_s_1t);
    layers.insert(
        "par.efficiency",
        cells_per_s_np / (threads as f64 * cells_per_s_1t),
    );
    Ok(Outcome {
        attempted: par.cells + cells,
        failed: failed + checks.failures() as u64,
        checks,
        metrics: Vec::new(),
    })
}

/// The per-layer metrics of the simulate → reduce → observe → estimate
/// layers, from the recomposition's spans.
pub fn fill_pipeline_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    tr: &Tracer,
    particle_steps: f64,
    configs: f64,
    spilled_bytes_per_ensemble: f64,
) {
    let sim_ms = tr.total_ms("sim.ensemble");
    let reduce_ms = tr.total_ms("reduce.step");
    layers.insert("sim.ensemble_ms", tr.mean_ms("sim.ensemble"));
    layers.insert(
        "sim.particle_steps_per_s",
        if sim_ms > 0.0 {
            particle_steps / (sim_ms / 1e3)
        } else {
            0.0
        },
    );
    layers.insert("sim.ensembles", tr.count("sim.ensemble") as f64);
    layers.insert("frames.view_ms", tr.mean_ms("frames.view"));
    layers.insert(
        "frames.spilled_mb",
        spilled_bytes_per_ensemble / (1 << 20) as f64,
    );
    layers.insert("reduce.step_ms", tr.mean_ms("reduce.step"));
    layers.insert(
        "reduce.configs_per_s",
        if reduce_ms > 0.0 {
            configs / (reduce_ms / 1e3)
        } else {
            0.0
        },
    );
    layers.insert("observers.step_ms", tr.mean_ms("observers.step"));
    for (metric, span) in [
        ("estimate.ksg_ms", "estimate.ksg"),
        ("estimate.kde_ms", "estimate.kde"),
        ("estimate.binned_ms", "estimate.binned"),
        ("estimate.discrete_ms", "estimate.discrete"),
        ("estimate.gaussian_ms", "estimate.gaussian"),
    ] {
        layers.insert(metric, tr.mean_ms(span));
    }
}
