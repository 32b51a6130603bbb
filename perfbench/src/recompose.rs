//! `SweepRunner::evaluate_frames` rebuilt from the layer calls, one
//! span per call, at one evaluation thread and in the engine's order:
//! simulate (streaming) → per evaluated step: cross-sample view →
//! shape reduction → observers → each estimator's `prepare` +
//! `estimate`. Its results must equal `SweepRunner::run_cells` bit for
//! bit; the per-layer numbers describe the program only if they do.

use crate::oracle;
use crate::trace::{SpanId, Tracer};
use crate::util::Checks;
use sops_core::observers::build_observers;
use sops_core::scenario::{EnsembleStorage, ScenarioSpec};
use sops_core::{MiSeries, PipelineResult};
use sops_info::measure::{MeasureConfig, MeasureWorkspace};
use sops_math::Vec2;
use sops_shape::ensemble::{reduce_configurations_with, ReduceConfig, ReduceWorkspace};
use sops_sim::streaming::{
    recycle_slice_vec, run_streaming_ensemble, EnsembleFrames, StreamingConfig, StreamingEnsemble,
};

/// Span name of one estimator family's `prepare` + `estimate`.
pub fn estimate_span(m: &MeasureConfig) -> &'static str {
    match m.label() {
        "ksg" => "estimate.ksg",
        "kde" => "estimate.kde",
        "binned" => "estimate.binned",
        "discrete" => "estimate.discrete",
        "gaussian" => "estimate.gaussian",
        _ => "estimate.other",
    }
}

/// What the oracles read off a recomposed ensemble besides its results.
pub struct Observed {
    /// Like-type contact fraction at the first and last evaluated step
    /// (`None` for single-type scenarios).
    pub contact: Option<(f64, f64)>,
    /// Bytes of frames the simulation spilled to disk.
    pub spilled_bytes: usize,
}

/// Simulates `scenario` with `sim_threads` workers and evaluates
/// `measures` on it through the layer calls, recording spans under
/// `parent`. Runs the Gaussian oracle on every step's observer matrix
/// when `measures` holds the `gaussian` family.
pub fn recompose(
    tr: &mut Tracer,
    parent: SpanId,
    scenario: &ScenarioSpec,
    measures: &[MeasureConfig],
    storage: EnsembleStorage,
    sim_threads: usize,
    checks: &mut Checks,
) -> (Vec<PipelineResult>, Observed) {
    let times = scenario.eval_times();
    let cfg = match storage {
        EnsembleStorage::Streaming { max_resident_bytes } => StreamingConfig { max_resident_bytes },
        EnsembleStorage::Retained => StreamingConfig::default(),
    };
    let ens: StreamingEnsemble = tr.span("sim.ensemble", parent, || {
        run_streaming_ensemble(&scenario.ensemble, &times, sim_threads, &cfg)
    });
    let spilled_bytes = if ens.is_spilled() {
        ens.samples() * times.len() * ens.particles() * std::mem::size_of::<Vec2>()
    } else {
        0
    };
    let frames = EnsembleFrames::Streaming(&ens);
    let types = scenario.ensemble.model.types().to_vec();
    let type_count = scenario.ensemble.model.type_count();
    let inner_reduce = ReduceConfig {
        threads: 1,
        ..scenario.reduce
    };
    let inner: Vec<MeasureConfig> = measures.iter().map(|m| m.with_threads(1)).collect();
    let seed = scenario.ensemble.seed;
    let mut reduce_ws = ReduceWorkspace::new();
    let mut measure_ws = MeasureWorkspace::new();
    let mut stage: Vec<Vec2> = Vec::new();
    let mut slice_store: Vec<&'static [Vec2]> = Vec::new();
    let mut values: Vec<Vec<f64>> = vec![Vec::with_capacity(times.len()); measures.len()];
    let mut costs = Vec::with_capacity(times.len());
    let mut contact = (f64::NAN, f64::NAN);
    for (ti, &t) in times.iter().enumerate() {
        let mut slice = recycle_slice_vec(std::mem::take(&mut slice_store));
        tr.span("frames.view", parent, || {
            frames.at_time_into(t, &mut stage, &mut slice)
        });
        if type_count > 1 && (ti == 0 || ti + 1 == times.len()) {
            // At most ~4·10⁴ particles' worth of samples: all of them
            // at lab scale, a few at collective scale.
            let take = (40_000 / types.len()).clamp(1, slice.len());
            let f = oracle::like_type_contact_fraction(&slice[..take], &types);
            if ti == 0 {
                contact.0 = f;
            } else {
                contact.1 = f;
            }
        }
        let reduced = tr.span("reduce.step", parent, || {
            reduce_configurations_with(&mut reduce_ws, &slice, &types, &inner_reduce)
        });
        costs.push(if reduced.icp_costs.is_empty() {
            0.0
        } else {
            reduced.icp_costs.iter().sum::<f64>() / reduced.icp_costs.len() as f64
        });
        let observers = tr.span("observers.step", parent, || {
            build_observers(&reduced, &types, type_count, scenario.observers, seed)
        });
        let view = observers.view();
        for (mi, m) in inner.iter().enumerate() {
            let v = tr.span(estimate_span(m), parent, || {
                let est = measure_ws.estimator_mut(m);
                est.prepare(&view);
                est.estimate()
            });
            if m.label() == "gaussian" {
                let own = oracle::gaussian_mi_bits(
                    &observers.data,
                    observers.rows,
                    &observers.block_sizes,
                );
                checks.check(
                    (own.is_nan() && v.is_nan()) || (own - v).abs() <= oracle::GAUSSIAN_TOL_BITS,
                    || {
                        format!(
                            "{} seed {seed} t={t}: gaussian estimator {v} bits, oracle {own} bits",
                            scenario.name
                        )
                    },
                );
            }
            values[mi].push(v);
        }
        slice_store = recycle_slice_vec(slice);
    }
    let equilibrated_fraction = frames.equilibrated_fraction();
    let results = values
        .into_iter()
        .map(|v| PipelineResult {
            mi: MiSeries {
                times: times.clone(),
                values: v,
            },
            mean_icp_cost: costs.clone(),
            equilibrated_fraction,
        })
        .collect();
    let observed = Observed {
        contact: (type_count > 1).then_some(contact),
        spilled_bytes,
    };
    (results, observed)
}

/// Whether two results are equal bit for bit.
pub fn bit_identical(a: &PipelineResult, b: &PipelineResult) -> bool {
    let same = |x: &[f64], y: &[f64]| {
        x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
    };
    a.mi.times == b.mi.times
        && same(&a.mi.values, &b.mi.values)
        && same(&a.mean_icp_cost, &b.mean_icp_cost)
        && a.equilibrated_fraction.to_bits() == b.equilibrated_fraction.to_bits()
}

/// Checks the contact-fraction oracle: about ½ at the start for every
/// two-type scenario; near 1 at the end when `sorts`, still about ½
/// otherwise.
pub fn check_contact(checks: &mut Checks, what: &str, contact: (f64, f64), sorts: bool) {
    let (start, end) = contact;
    checks.check((0.35..=0.65).contains(&start), || {
        format!("{what}: like-type contact fraction {start:.3} at t=0, want about 0.5")
    });
    if sorts {
        checks.check(end >= 0.85, || {
            format!("{what}: like-type contact fraction {end:.3} at the end, want near 1")
        });
    } else {
        checks.check((0.35..=0.65).contains(&end), || {
            format!("{what}: like-type contact fraction {end:.3} at the end, want about 0.5")
        });
    }
}
