//! `characterize`: the paper's offline characterization grid, one cold
//! cell per operation (`PipelineRun::build` with functional math, then
//! `PipelineRun::profile` with the analytical profiler), cells in a seeded
//! order, whole passes over the grid until the time is up.

use std::collections::BTreeMap;
use std::time::Instant;

use gsuite_core::config::{CompModel, FrameworkKind, GnnModel, RunConfig};
use gsuite_core::models::ModelWeights;
use gsuite_core::pipeline::PipelineRun;
use gsuite_graph::datasets::Dataset;
use gsuite_graph::Graph;
use gsuite_profile::{HwProfiler, PipelineProfile};
use gsuite_scenarios::BenchOpts;
use gsuite_tensor::DenseMatrix;

use crate::measure::{median, Metrics, Rng};
use crate::trace::Tracer;
use crate::{conserve, reference, Phase, PhaseClock, Workload};

/// Datasets and scales, reduced so that one pass over the 51-cell grid
/// takes about five seconds on the reference host and a run holds
/// several passes.
const DATASETS: [(Dataset, f64); 3] = [
    (Dataset::Cora, 0.5),
    (Dataset::PubMed, 0.2),
    (Dataset::Reddit, 0.004),
];

/// Loads `dataset` at `scale` under a `graph.load` span.
pub fn load(tracer: &Tracer, dataset: Dataset, scale: f64) -> Graph {
    let graph = tracer.span("graph.load", 0, || dataset.load_scaled(scale));
    tracer.record("graph.edges", graph.num_edges() as f64);
    graph
}

/// `PipelineRun::build` under a `core.build` span, recording the compile
/// phases it returns.
pub fn build(
    tracer: &Tracer,
    op: u64,
    graph: &Graph,
    config: &RunConfig,
) -> gsuite_core::Result<PipelineRun> {
    let run = tracer.span("core.build", op, || PipelineRun::build(graph, config))?;
    let p = &run.compile_phases;
    tracer.record("core.lower_ms", p.lower_ms);
    tracer.record("core.optimize_ms", p.optimize_ms);
    tracer.record("core.decorate_ms", p.decorate_ms);
    tracer.record("core.schedule_ms", p.schedule_ms);
    tracer.record("core.launches", run.launch_count() as f64);
    Ok(run)
}

/// Measurement options of every workload that profiles with the
/// analytical model: the quick mode's CTA sampling cap bounds the replay
/// of the largest kernels.
pub fn opts() -> BenchOpts {
    BenchOpts::quick()
}

/// CTAs per launch the analytical profiler of [`opts`] walks (the quick
/// cap of `BenchOpts::hw`). The conservation check fails if they ever
/// disagree.
pub const REPLAY_CAP: u64 = 512;

/// `PipelineRun::profile` under a `profile.hw` span, recording how many
/// warp instructions the analytical model replayed (its sampled CTAs).
pub fn profile_hw(
    tracer: &Tracer,
    op: u64,
    run: &PipelineRun,
    hw: &dyn gsuite_profile::Profiler,
) -> PipelineProfile {
    let profile = tracer.span("profile.hw", op, || run.profile(hw));
    if tracer.is_on() {
        let replayed: f64 = run
            .launches
            .iter()
            .zip(&profile.kernels)
            .map(|(l, k)| {
                let ctas = l.workload.grid().ctas;
                k.instr_mix.total() as f64 * ctas.min(REPLAY_CAP) as f64 / ctas.max(1) as f64
            })
            .sum();
        tracer.record("profile.hw_instrs", replayed);
    }
    profile
}

struct Cell {
    dataset: usize,
    config: RunConfig,
}

/// What the first pass kept of each cell for the checks.
struct Kept {
    output: DenseMatrix,
    profile: PipelineProfile,
}

pub struct Characterize {
    seed: u64,
    graphs: Vec<Graph>,
    cells: Vec<Cell>,
    hw: HwProfiler,
    kept: Vec<Option<Kept>>,
    /// Cells whose output differed from their first run.
    problems: Vec<String>,
}

impl Characterize {
    pub fn new(seed: u64) -> Characterize {
        let mut cells = Vec::new();
        for (d, &(dataset, scale)) in DATASETS.iter().enumerate() {
            for model in GnnModel::ALL {
                for comp in [CompModel::Mp, CompModel::Spmm] {
                    for framework in FrameworkKind::ALL {
                        // gSuite refuses SAGE under SpMM by design (§V-A).
                        if (model, comp, framework)
                            == (GnnModel::Sage, CompModel::Spmm, FrameworkKind::GSuite)
                        {
                            continue;
                        }
                        cells.push(Cell {
                            dataset: d,
                            config: RunConfig {
                                model,
                                comp,
                                dataset,
                                scale,
                                framework,
                                seed,
                                functional_math: true,
                                ..RunConfig::default()
                            },
                        });
                    }
                }
            }
        }
        let kept = cells.iter().map(|_| None).collect();
        Characterize {
            seed,
            graphs: Vec::new(),
            cells,
            hw: opts().hw(),
            kept,
            problems: Vec::new(),
        }
    }

    fn effective_comp(config: &RunConfig) -> CompModel {
        config.framework.forced_comp().unwrap_or(config.comp)
    }
}

impl Workload for Characterize {
    fn tail(&self) -> f64 {
        0.9
    }

    fn setups(&self) -> usize {
        9
    }

    fn setup(&mut self, tracer: &Tracer) {
        self.graphs = DATASETS
            .iter()
            .map(|&(dataset, scale)| load(tracer, dataset, scale))
            .collect();
    }

    fn timed(&mut self, seconds: f64, tracer: &Tracer) -> Phase {
        let clock = PhaseClock::start();
        let mut samples = Vec::new();
        let mut attempted = 0u64;
        let mut pass = 0u64;
        while pass == 0 || clock.elapsed_s() < seconds {
            let mut order: Vec<usize> = (0..self.cells.len()).collect();
            Rng::new(self.seed, pass).shuffle(&mut order);
            for i in order {
                let cell = &self.cells[i];
                let graph = &self.graphs[cell.dataset];
                let op = attempted;
                attempted += 1;
                let t0 = Instant::now();
                let run = match build(tracer, op, graph, &cell.config) {
                    Ok(run) => run,
                    // A failed operation counts in `failed`, not as a wrong
                    // output.
                    Err(e) => {
                        eprintln!("hostbench: {}: {e}", cell.config.label());
                        continue;
                    }
                };
                let profile = profile_hw(tracer, op, &run, &self.hw);
                tracer.record("characterize.cell", i as f64);
                samples.push(t0.elapsed().as_secs_f64() * 1e3);
                match &self.kept[i] {
                    None => {
                        self.kept[i] = Some(Kept {
                            output: run.output,
                            profile,
                        })
                    }
                    Some(k) if k.output != run.output || k.profile != profile => {
                        self.problems.push(format!(
                            "{}: a rerun changed the result",
                            cell.config.label()
                        ))
                    }
                    Some(_) => {}
                }
            }
            pass += 1;
        }
        clock.finish(samples, attempted, 0)
    }

    fn check(&mut self, tracer: &Tracer) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        // Functional outputs against the independent reference, and equal
        // across the frameworks that lower the same computational model.
        let mut groups: BTreeMap<(usize, &str, &str), usize> = BTreeMap::new();
        for d in 0..DATASETS.len() {
            for model in GnnModel::ALL {
                let graph = &self.graphs[d];
                let weights = ModelWeights::init(model, graph.feature_dim(), 16, 2, self.seed);
                let expect = reference::infer(model, graph, &weights);
                for (i, cell) in self.cells.iter().enumerate() {
                    if cell.dataset != d || cell.config.model != model {
                        continue;
                    }
                    let label = cell.config.label();
                    let Some(kept) = &self.kept[i] else {
                        continue; // failed every time, counted in `failed`
                    };
                    if let Err(e) = reference::within_tolerance(&kept.output, &expect) {
                        problems.push(format!("{label} vs reference: {e}"));
                    }
                    let key = (d, model.name(), Self::effective_comp(&cell.config).name());
                    match groups.get(&key) {
                        None => {
                            groups.insert(key, i);
                        }
                        Some(&j) => {
                            let other = self.kept[j].as_ref().map(|k| &k.output);
                            if other != Some(&kept.output) {
                                problems.push(format!(
                                    "{label} and {} compute the same model but differ",
                                    self.cells[j].config.label()
                                ));
                            }
                        }
                    }
                }
            }
        }
        // Analytical-profiler conservation over every cell's launches,
        // rebuilt without functional math (the launch stream is the same).
        let gpu = self.hw.config().clone();
        let mut buf = gsuite_gpu::TraceBuf::new();
        for (i, cell) in self.cells.iter().enumerate() {
            let Some(kept) = &self.kept[i] else { continue };
            let config = RunConfig {
                functional_math: false,
                ..cell.config.clone()
            };
            let Ok(run) = PipelineRun::build(&self.graphs[cell.dataset], &config) else {
                problems.push(format!("{}: rebuild failed", config.label()));
                continue;
            };
            if run.launches.len() != kept.profile.kernels.len() {
                problems.push(format!("{}: launch count changed", config.label()));
                continue;
            }
            for (launch, stats) in run.launches.iter().zip(&kept.profile.kernels) {
                let ctas = launch.workload.grid().ctas;
                let sampled = ctas.min(REPLAY_CAP);
                let counted = tracer.span("gpu.trace", i as u64, || {
                    conserve::count_traces(&*launch.workload, sampled, &mut buf)
                });
                if let Err(e) = conserve::check_hw(stats, &counted, ctas, sampled, &gpu) {
                    problems.push(format!("{}: {e}", config.label()));
                }
            }
        }
        problems
    }

    fn layers(&mut self, tracer: &Tracer, m: &mut Metrics) {
        // Functional math's share of lowering: each cell's traced lower
        // time minus the same build without it.
        let lower = tracer.values("core.lower_ms");
        let cells = tracer.values("characterize.cell");
        let mut deltas = Vec::new();
        let per_cell: Vec<f64> = (0..self.cells.len())
            .map(|c| {
                let own: Vec<f64> = cells
                    .iter()
                    .zip(&lower)
                    .filter(|(i, _)| **i as usize == c)
                    .map(|(_, v)| *v)
                    .collect();
                median(&own)
            })
            .collect();
        for (c, cell) in self.cells.iter().enumerate() {
            let config = RunConfig {
                functional_math: false,
                ..cell.config.clone()
            };
            if let Ok(run) = PipelineRun::build(&self.graphs[cell.dataset], &config) {
                deltas.push(per_cell[c] - run.compile_phases.lower_ms);
            }
        }
        m.put("tensor.functional_ms", median(&deltas), "ms");
    }
}
