//! Conservation checks on the two profiler backends, from traces the
//! benchmark generates itself through `KernelWorkload::trace_into`:
//! issued warp instructions equal the instructions in the traces of the
//! CTAs the backend walked, cache hits never exceed accesses, and no
//! launch issues faster than the modeled GPU's peak issue rate.

use gsuite_gpu::{GpuConfig, InstrClass, InstrMix, KernelWorkload, TraceBuf};
use gsuite_profile::KernelStats;

/// Instruction counts by class over the first `ctas` CTAs of `workload`.
pub fn count_traces(workload: &dyn KernelWorkload, ctas: u64, buf: &mut TraceBuf) -> InstrMix {
    let mut mix = InstrMix::default();
    let warps = workload.grid().warps_per_cta;
    for cta in 0..ctas {
        for warp in 0..warps {
            buf.clear();
            workload.trace_into(buf, cta, warp);
            for instr in buf.instrs() {
                match instr.class {
                    InstrClass::Fp32 => mix.fp32 += 1,
                    InstrClass::Int => mix.int += 1,
                    InstrClass::Sfu => mix.other += 1,
                    InstrClass::Control | InstrClass::Sync => mix.control += 1,
                    InstrClass::LoadGlobal | InstrClass::StoreGlobal | InstrClass::AtomicGlobal => {
                        mix.load_store += 1
                    }
                }
            }
        }
    }
    mix
}

fn classes(m: &InstrMix) -> [u64; 5] {
    [m.fp32, m.int, m.load_store, m.control, m.other]
}

/// Cache hits never exceed accesses.
pub fn check_caches(stats: &KernelStats) -> Result<(), String> {
    for (level, c) in [("L1", &stats.l1), ("L2", &stats.l2)] {
        if c.hits > c.accesses {
            return Err(format!(
                "{}: {level} hits {} exceed accesses {}",
                stats.kernel, c.hits, c.accesses
            ));
        }
    }
    Ok(())
}

/// The analytical profiler walks the first `sampled` CTAs of a `ctas`
/// grid and scales each class count by `ctas / sampled`. Its modeled time
/// can never be shorter than issuing every instruction at peak rate.
pub fn check_hw(
    stats: &KernelStats,
    counted: &InstrMix,
    ctas: u64,
    sampled: u64,
    gpu: &GpuConfig,
) -> Result<(), String> {
    let scale = if sampled == 0 {
        1.0
    } else {
        ctas as f64 / sampled as f64
    };
    let expect = classes(counted).map(|c| (c as f64 * scale).round() as u64);
    if classes(&stats.instr_mix) != expect {
        return Err(format!(
            "{}: analytical mix {:?} != traced {:?} (x{scale})",
            stats.kernel,
            classes(&stats.instr_mix),
            expect
        ));
    }
    check_caches(stats)?;
    let issue_bound_ms =
        stats.instr_mix.total() as f64 / gpu.peak_issue_per_cycle() / (gpu.clock_ghz * 1e6);
    if stats.time_ms < issue_bound_ms * (1.0 - 1e-9) {
        return Err(format!(
            "{}: {} instructions in {} ms beat the {}-per-cycle peak",
            stats.kernel,
            stats.instr_mix.total(),
            stats.time_ms,
            gpu.peak_issue_per_cycle()
        ));
    }
    Ok(())
}

/// Simulated cycles of the sampled part of a launch, recovered from its
/// full-grid time estimate (`time = cycles_to_ms(cycles) / fraction`).
pub fn sim_cycles(stats: &KernelStats, ctas: u64, simulated: u64, gpu: &GpuConfig) -> u64 {
    let fraction = simulated as f64 / ctas.max(1) as f64;
    (stats.time_ms * fraction * gpu.clock_ghz * 1e6).round() as u64
}

/// The cycle simulator runs the first `simulated` CTAs: it issues exactly
/// their traced instructions, one issue per occupied scheduler slot,
/// within `cycles × peak issue` slots.
pub fn check_sim(
    stats: &KernelStats,
    counted: &InstrMix,
    ctas: u64,
    simulated: u64,
    gpu: &GpuConfig,
) -> Result<(), String> {
    if classes(&stats.instr_mix) != classes(counted) {
        return Err(format!(
            "{}: simulated mix {:?} != traced {:?}",
            stats.kernel,
            classes(&stats.instr_mix),
            classes(counted)
        ));
    }
    check_caches(stats)?;
    let cycles = sim_cycles(stats, ctas, simulated, gpu);
    let slots = cycles * (gpu.num_sms * gpu.schedulers_per_sm) as u64;
    let occ = stats
        .occupancy
        .as_ref()
        .ok_or_else(|| format!("{}: the simulator reported no occupancy", stats.kernel))?;
    let issues = occ.w8 + occ.w20 + occ.w32;
    if issues != stats.instr_mix.total() {
        return Err(format!(
            "{}: {issues} issue slots for {} instructions",
            stats.kernel,
            stats.instr_mix.total()
        ));
    }
    if occ.total() != slots {
        return Err(format!(
            "{}: occupancy accounts {} scheduler-cycles, {cycles} cycles give {slots}",
            stats.kernel,
            occ.total()
        ));
    }
    if stats.instr_mix.total() as f64 > cycles as f64 * gpu.peak_issue_per_cycle() {
        return Err(format!(
            "{}: {} instructions in {cycles} cycles beat the {}-per-cycle peak",
            stats.kernel,
            stats.instr_mix.total(),
            gpu.peak_issue_per_cycle()
        ));
    }
    Ok(())
}
