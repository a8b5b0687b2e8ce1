//! `cyclesim`: the kernel launches behind the paper's simulator figures
//! (Figs. 6, 7 and 9: {GCN, GIN, SAGE} × {MP, SpMM} over the five
//! datasets), each run through the cycle simulator with a CTA cap and
//! functional math off. One operation is one launch profiled through
//! `Profiler::profile` of a `SimProfiler`; launches in a seeded order,
//! whole passes until the time is up.

use std::time::Instant;

use gsuite_core::config::{CompModel, GnnModel, RunConfig};
use gsuite_core::pipeline::PipelineRun;
use gsuite_graph::datasets::Dataset;
use gsuite_profile::{KernelStats, Profiler, SimProfiler};
use gsuite_scenarios::BenchOpts;

use crate::characterize::{build, load};
use crate::measure::{median, Metrics, Rng};
use crate::trace::Tracer;
use crate::{conserve, Phase, PhaseClock, Workload};

/// Simulated CTAs per launch. It bounds the host time of the largest
/// launches while keeping several CTAs per simulated SM.
const CTA_CAP: u64 = 24;

fn opts() -> BenchOpts {
    BenchOpts {
        max_ctas_cap: Some(CTA_CAP),
        ..BenchOpts::default()
    }
}

pub struct CycleSim {
    seed: u64,
    /// One simulator per dataset, as the figures' device policy picks it.
    sims: Vec<SimProfiler>,
    runs: Vec<(usize, PipelineRun)>,
    /// `(run, launch)` of every operation in a pass.
    launches: Vec<(usize, usize)>,
    kept: Vec<Option<KernelStats>>,
    problems: Vec<String>,
}

impl CycleSim {
    pub fn new(seed: u64) -> CycleSim {
        let opts = opts();
        CycleSim {
            seed,
            sims: Dataset::ALL.iter().map(|&d| opts.sim_for(d)).collect(),
            runs: Vec::new(),
            launches: Vec::new(),
            kept: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn simulated(&self, d: usize, ctas: u64) -> u64 {
        let cap = self.sims[d].simulator().options().max_ctas;
        cap.map_or(ctas, |c| ctas.min(c.max(1)))
    }
}

impl Workload for CycleSim {
    fn tail(&self) -> f64 {
        0.99
    }

    fn setups(&self) -> usize {
        5
    }

    fn setup(&mut self, tracer: &Tracer) {
        let opts = opts();
        self.runs.clear();
        for (d, &dataset) in Dataset::ALL.iter().enumerate() {
            let graph = load(tracer, dataset, opts.scale_for(dataset));
            for model in GnnModel::ALL {
                for comp in [CompModel::Mp, CompModel::Spmm] {
                    if (model, comp) == (GnnModel::Sage, CompModel::Spmm) {
                        continue;
                    }
                    let config = RunConfig {
                        model,
                        comp,
                        dataset,
                        scale: opts.scale_for(dataset),
                        seed: self.seed,
                        functional_math: false,
                        ..RunConfig::default()
                    };
                    match build(tracer, 0, &graph, &config) {
                        Ok(run) => self.runs.push((d, run)),
                        Err(e) => self.problems.push(format!("{}: {e}", config.label())),
                    }
                }
            }
        }
        self.launches = self
            .runs
            .iter()
            .enumerate()
            .flat_map(|(r, (_, run))| (0..run.launches.len()).map(move |l| (r, l)))
            .collect();
        self.kept = vec![None; self.launches.len()];
    }

    fn timed(&mut self, seconds: f64, tracer: &Tracer) -> Phase {
        let clock = PhaseClock::start();
        let mut samples = Vec::new();
        let mut attempted = 0u64;
        let mut pass = 0u64;
        while pass == 0 || clock.elapsed_s() < seconds {
            let mut order: Vec<usize> = (0..self.launches.len()).collect();
            Rng::new(self.seed, pass).shuffle(&mut order);
            for i in order {
                let (r, l) = self.launches[i];
                let (d, run) = &self.runs[r];
                let workload = &*run.launches[l].workload;
                let op = attempted;
                attempted += 1;
                let t0 = Instant::now();
                let stats = tracer.span("gpu.sim", op, || self.sims[*d].profile(workload));
                samples.push(t0.elapsed().as_secs_f64() * 1e3);
                if tracer.is_on() {
                    let ctas = workload.grid().ctas;
                    let gpu = self.sims[*d].simulator().config();
                    let cycles = conserve::sim_cycles(&stats, ctas, self.simulated(*d, ctas), gpu);
                    tracer.record("gpu.sim_instrs", stats.instr_mix.total() as f64);
                    tracer.record("gpu.sim_cycles", cycles as f64);
                }
                match &self.kept[i] {
                    None => self.kept[i] = Some(stats),
                    Some(k) if *k != stats => self.problems.push(format!(
                        "{} launch {l}: a rerun changed the simulated statistics",
                        run.label
                    )),
                    Some(_) => {}
                }
            }
            pass += 1;
        }
        clock.finish(samples, attempted, 0)
    }

    fn check(&mut self, tracer: &Tracer) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        let mut buf = gsuite_gpu::TraceBuf::new();
        for (i, &(r, l)) in self.launches.iter().enumerate() {
            let (d, run) = &self.runs[r];
            let Some(stats) = &self.kept[i] else {
                problems.push(format!("{} launch {l}: never ran", run.label));
                continue;
            };
            let workload = &*run.launches[l].workload;
            let ctas = workload.grid().ctas;
            let simulated = self.simulated(*d, ctas);
            let counted = tracer.span("gpu.trace", i as u64, || {
                conserve::count_traces(workload, simulated, &mut buf)
            });
            let gpu = self.sims[*d].simulator().config();
            if let Err(e) = conserve::check_sim(stats, &counted, ctas, simulated, gpu) {
                problems.push(format!("{} launch {l}: {e}", run.label));
            }
        }
        problems
    }

    fn layers(&mut self, tracer: &Tracer, m: &mut Metrics) {
        let host_s = tracer.durations_ms("gpu.sim").iter().sum::<f64>() / 1e3;
        let instrs: f64 = tracer.values("gpu.sim_instrs").iter().sum();
        let cycles: f64 = tracer.values("gpu.sim_cycles").iter().sum();
        m.put("gpu.sim_ms", median(&tracer.durations_ms("gpu.sim")), "ms");
        m.put("gpu.sim_minstr_per_s", instrs / 1e6 / host_s, "1/s");
        m.put("gpu.sim_mcycles_per_s", cycles / 1e6 / host_s, "1/s");
        // Modeled totals over one pass: every launch once.
        let (mut pass_instrs, mut pass_cycles) = (0u64, 0u64);
        for (i, &(r, l)) in self.launches.iter().enumerate() {
            let (d, run) = &self.runs[r];
            if let Some(stats) = &self.kept[i] {
                let ctas = run.launches[l].workload.grid().ctas;
                let gpu = self.sims[*d].simulator().config();
                pass_instrs += stats.instr_mix.total();
                pass_cycles += conserve::sim_cycles(stats, ctas, self.simulated(*d, ctas), gpu);
            }
        }
        m.put("gpu.sim_instructions", pass_instrs as f64, "count");
        m.put("gpu.sim_cycles", pass_cycles as f64, "count");
    }
}
