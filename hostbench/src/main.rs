//! `hostbench`: the measured host-time benchmark of gSuite-rs.
//!
//! ```text
//! hostbench --workload <characterize|cyclesim|serve|serve-batched>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets up (several times; the median is
//! `setup_s`), measures one timed phase with tracing off, checks the
//! program's outputs and prints the end-to-end metrics. With `--trace 1`
//! it sets up once, measures an untraced and then a traced phase, checks,
//! prints the per-layer metrics plus the tracing overhead, and writes the
//! spans to `.bench_traces/`. The last stdout line is the JSON result.
//! See `README.md` for the workloads and what each metric should move.

mod characterize;
mod conserve;
mod cyclesim;
mod measure;
mod reference;
mod serve;
mod trace;

use std::time::Instant;

use measure::{median, percentile, samples_beyond, Metrics};
use trace::Tracer;

/// The outcome of one timed phase.
#[derive(Debug, Default)]
pub struct Phase {
    /// Per-operation latency in ms, one sample per operation completed
    /// without error.
    pub samples_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations the program refused (shed load); also counted in
    /// `failed`.
    pub rejected: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Wall and CPU clocks started together at the beginning of a timed phase.
pub struct PhaseClock {
    wall: Instant,
    cpu: f64,
}

impl PhaseClock {
    pub fn start() -> PhaseClock {
        PhaseClock {
            cpu: measure::cpu_seconds(),
            wall: Instant::now(),
        }
    }

    pub fn elapsed_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn finish(self, samples_ms: Vec<f64>, attempted: u64, rejected: u64) -> Phase {
        let wall_s = self.wall.elapsed().as_secs_f64();
        Phase {
            failed: attempted - samples_ms.len() as u64,
            samples_ms,
            attempted,
            rejected,
            wall_s,
            cpu_s: measure::cpu_seconds() - self.cpu,
        }
    }
}

/// One benchmark workload.
pub trait Workload {
    /// Nearest-rank percentile reported as `tail_ms`.
    fn tail(&self) -> f64;
    /// How many times set-up runs in an untraced run (`setup_s` is the
    /// median).
    fn setups(&self) -> usize;
    /// Builds the workload's inputs and the program state the timed phase
    /// drives, replacing any earlier set-up.
    fn setup(&mut self, tracer: &Tracer);
    /// Runs operations for about `seconds`.
    fn timed(&mut self, seconds: f64, tracer: &Tracer) -> Phase;
    /// Checks the program's outputs; one line per violated property.
    fn check(&mut self, tracer: &Tracer) -> Vec<String>;
    /// Per-layer metrics from the traced phase and the checks.
    fn layers(&mut self, tracer: &Tracer, metrics: &mut Metrics);
    /// Stops whatever the set-up started.
    fn shutdown(&mut self) {}
}

/// Every per-layer metric, in `BENCHMARK.json` order. A layer a workload
/// does not exercise reads 0 there (see `README.md`).
const PER_LAYER: [(&str, &str); 28] = [
    ("graph.load_ms", "ms"),
    ("graph.edges_per_s", "1/s"),
    ("core.build_ms", "ms"),
    ("core.lower_ms", "ms"),
    ("core.optimize_ms", "ms"),
    ("core.decorate_ms", "ms"),
    ("core.schedule_ms", "ms"),
    ("tensor.functional_ms", "ms"),
    ("core.launches", "count"),
    ("profile.hw_ms", "ms"),
    ("profile.hw_minstr_per_s", "Minstr/s"),
    ("gpu.trace_ms", "ms"),
    ("gpu.sim_ms", "ms"),
    ("gpu.sim_minstr_per_s", "Minstr/s"),
    ("gpu.sim_mcycles_per_s", "Mcycles/s"),
    ("gpu.sim_instructions", "count"),
    ("gpu.sim_cycles", "count"),
    ("serve.queue_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.net_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.lock_waits", "count"),
    ("serve.tpl_hit_ratio", "ratio"),
    ("serve.batches", "count"),
    ("serve.batch_size_mean", "count"),
    ("loadgen.late_ms", "ms"),
    ("trace.goodput_delta_per_s", "1/s"),
];

/// The layer metrics every workload derives the same way from its spans.
fn common_layers(t: &Tracer, m: &mut Metrics) {
    let sum = |v: Vec<f64>| v.iter().sum::<f64>();
    let load_ms = sum(t.durations_ms("graph.load"));
    m.put("graph.load_ms", load_ms, "ms");
    m.put(
        "graph.edges_per_s",
        sum(t.values("graph.edges")) / (load_ms / 1e3),
        "1/s",
    );
    m.put("core.build_ms", median(&t.durations_ms("core.build")), "ms");
    for phase in [
        "core.lower_ms",
        "core.optimize_ms",
        "core.decorate_ms",
        "core.schedule_ms",
    ] {
        m.put(phase, median(&t.values(phase)), "ms");
    }
    m.put("core.launches", median(&t.values("core.launches")), "count");
    let hw = t.durations_ms("profile.hw");
    m.put("profile.hw_ms", median(&hw), "ms");
    m.put(
        "profile.hw_minstr_per_s",
        sum(t.values("profile.hw_instrs")) / 1e6 / (sum(hw) / 1e3),
        "1/s",
    );
    m.put("gpu.trace_ms", median(&t.durations_ms("gpu.trace")), "ms");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload <characterize|cyclesim|serve|serve-batched> --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "characterize" => Box::new(characterize::Characterize::new(args.seed)),
        "cyclesim" => Box::new(cyclesim::CycleSim::new(args.seed)),
        "serve" => Box::new(serve::Serve::new(args.seed)),
        "serve-batched" => Box::new(serve::Batched::new(args.seed)),

        other => {
            eprintln!("hostbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };

    let off = Tracer::new(false);
    let tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    for _ in 0..if args.trace { 1 } else { workload.setups() } {
        let t0 = Instant::now();
        workload.setup(&tracer);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let phase = workload.timed(args.seconds, &off);
    let traced = args.trace.then(|| workload.timed(args.seconds, &tracer));
    // Before the checks, whose reference computations are the
    // benchmark's own memory.
    let peak_rss_mb = measure::peak_rss_mb();
    workload.shutdown();
    let problems = workload.check(&tracer);

    let tail = workload.tail();
    let n = phase.samples_ms.len();
    let goodput = n as f64 / phase.wall_s;
    println!(
        "workload={} seed={} seconds={}",
        args.workload, args.seed, args.seconds
    );
    println!(
        "host_cores={} commit={}",
        measure::host_cores(),
        measure::commit()
    );
    println!(
        "attempted={} failed={} rejected={} samples={n} tail=p{} ({} samples beyond)",
        phase.attempted,
        phase.failed,
        phase.rejected,
        tail * 100.0,
        samples_beyond(n, tail)
    );
    println!("setup_s runs: {setup_s:?}");
    for p in &problems {
        eprintln!("hostbench: check failed: {p}");
    }
    println!(
        "checks: {}",
        if problems.is_empty() {
            "all passed"
        } else {
            "FAILED"
        }
    );

    let mut metrics = Metrics::default();
    let (attempted, failed) = match &traced {
        None => {
            metrics.put("setup_s", median(&setup_s), "s");
            metrics.put("peak_rss_mb", peak_rss_mb, "MB");
            metrics.put("goodput_per_s", goodput, "1/s");
            metrics.put("p50_ms", median(&phase.samples_ms), "ms");
            metrics.put("tail_ms", percentile(&phase.samples_ms, tail), "ms");
            metrics.put("cpu_ms_per_op", phase.cpu_s * 1e3 / n.max(1) as f64, "ms");
            (phase.attempted, phase.failed)
        }
        Some(t) => {
            let mut layers = Metrics::default();
            workload.layers(&tracer, &mut layers);
            common_layers(&tracer, &mut layers);
            let traced_goodput = t.samples_ms.len() as f64 / t.wall_s;
            layers.put("trace.goodput_delta_per_s", traced_goodput - goodput, "1/s");
            for (name, unit) in PER_LAYER {
                metrics.put(name, layers.get(name).unwrap_or(0.0), unit);
            }
            let path = std::path::PathBuf::from(format!(
                ".bench_traces/{}-seed{}.jsonl",
                args.workload, args.seed
            ));
            if let Err(e) = tracer.write(&path) {
                eprintln!("hostbench: cannot write {}: {e}", path.display());
            }
            (phase.attempted + t.attempted, phase.failed + t.failed)
        }
    };
    for m in &metrics.0 {
        println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!(
        "{}",
        measure::result_json(problems.is_empty(), attempted, failed, &metrics)
    );
}
