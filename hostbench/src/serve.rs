//! The two serving workloads, one server used in opposite ways.
//!
//! * `serve`: the live TCP server on loopback, driven closed loop by two
//!   connections with a seeded draw (with repeats) over the valid
//!   full-graph configs. A warm-up pass in set-up fills the cache, so the
//!   timed phase measures the per-hit path.
//! * `serve-batched`: an in-process `Server` with cross-request batching,
//!   driven open loop on a seeded Poisson schedule of sampled ego-net
//!   requests from distinct users on PubMed; each request is timed from
//!   when it was due.

use std::collections::BTreeMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gsuite_core::config::{CompModel, GnnModel, RunConfig};
use gsuite_core::models::ModelWeights;
use gsuite_core::pipeline::PipelineRun;
use gsuite_graph::datasets::Dataset;
use gsuite_graph::{Graph, NeighborSampler};
use gsuite_profile::PipelineProfile;
use gsuite_scenarios::sim::BatchPolicy;
use gsuite_scenarios::{BenchOpts, GpuSpec};
use gsuite_serve::{Completion, ProtocolClient, ServeConfig, ServeRequest, Server, ServerStats};

use crate::characterize::{build, load, opts, profile_hw};
use crate::measure::{median, percentile, Metrics, Rng};
use crate::trace::Tracer;
use crate::{reference, Phase, PhaseClock, Workload};

/// Connections, load threads and server workers: the host's two cores.
const CONNECTIONS: usize = 2;
const WORKERS: usize = 2;

/// The fields of a protocol response line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
}

fn field_ms(line: &str, key: &str) -> f64 {
    field(line, key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}

/// Counter deltas from the `stats` command over a timed phase.
fn stats_layers(before: &ServerStats, after: &ServerStats, m: &mut Metrics) {
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let hits = d(after.cache.hits, before.cache.hits);
    let misses = d(after.cache.misses, before.cache.misses);
    m.put("serve.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    m.put(
        "serve.coalesced",
        d(after.coalesced, before.coalesced),
        "count",
    );
    m.put(
        "serve.lock_waits",
        d(after.lock_waits, before.lock_waits),
        "count",
    );
    let tpl_hits = d(after.tpl_hits, before.tpl_hits);
    let tpl_misses = d(after.tpl_misses, before.tpl_misses);
    m.put(
        "serve.tpl_hit_ratio",
        ratio(tpl_hits, tpl_hits + tpl_misses),
        "ratio",
    );
    let batches = d(after.batches, before.batches);
    m.put("serve.batches", batches, "count");
    let members = d(after.batched_requests, before.batched_requests);
    m.put("serve.batch_size_mean", ratio(members, batches), "count");
}

// ---------------------------------------------------------------------------
// serve: closed loop over TCP.
// ---------------------------------------------------------------------------

/// Dataset scale of every `serve` request: a quarter of each citation
/// graph keeps a cache hit near 50 ms, so a run collects hundreds of
/// samples.
const SERVE_SCALE: f64 = 0.25;

/// One response of the timed phase.
struct Response {
    config: usize,
    rtt_ms: f64,
    line: String,
}

pub struct Serve {
    seed: u64,
    opts: BenchOpts,
    configs: Vec<RunConfig>,
    lines: Vec<String>,
    server: Option<JoinHandle<std::io::Result<()>>>,
    clients: Vec<ProtocolClient>,
    responses: Vec<Response>,
    traced_from: usize,
    stats: Option<(ServerStats, ServerStats)>,
    problems: Vec<String>,
}

impl Serve {
    pub fn new(seed: u64) -> Serve {
        let mut configs = Vec::new();
        for dataset in [Dataset::Cora, Dataset::CiteSeer, Dataset::PubMed] {
            for model in GnnModel::ALL {
                for comp in [CompModel::Mp, CompModel::Spmm] {
                    if (model, comp) == (GnnModel::Sage, CompModel::Spmm) {
                        continue;
                    }
                    configs.push(RunConfig {
                        model,
                        comp,
                        dataset,
                        scale: SERVE_SCALE,
                        seed,
                        functional_math: false,
                        ..RunConfig::default()
                    });
                }
            }
        }
        let lines = configs
            .iter()
            .map(|c| ServeRequest::new(c.clone(), GpuSpec::HwV100).to_line())
            .collect();
        Serve {
            seed,
            opts: opts(),
            configs,
            lines,
            server: None,
            clients: Vec::new(),
            responses: Vec::new(),
            traced_from: 0,
            stats: None,
            problems: Vec::new(),
        }
    }

    fn stats(&mut self) -> Option<ServerStats> {
        let line = self.clients[0].round_trip("stats").unwrap_or_default();
        let stats = ServerStats::parse_line(&line);
        if stats.is_none() {
            self.problems
                .push(format!("unparsable stats line {line:?}"));
        }
        stats
    }
}

impl Workload for Serve {
    fn tail(&self) -> f64 {
        0.95
    }

    fn setups(&self) -> usize {
        3
    }

    fn setup(&mut self, tracer: &Tracer) {
        self.shutdown();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = listener.local_addr().expect("bound address").to_string();
        let cfg = ServeConfig {
            workers: WORKERS,
            // Every warmed config stays resident: no eviction in the
            // timed phase.
            cache_bytes: 4 << 30,
            opts: self.opts.clone(),
            ..ServeConfig::default()
        };
        self.server = Some(std::thread::spawn(move || {
            gsuite_serve::serve_on(listener, cfg)
        }));
        self.clients = (0..CONNECTIONS)
            .map(|_| ProtocolClient::connect(&addr).expect("connect to the loopback server"))
            .collect();
        // Warm-up: every config once, split across the connections.
        let lines = &self.lines;
        let warm: Vec<Vec<String>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        (c..lines.len())
                            .step_by(CONNECTIONS)
                            .map(|i| {
                                tracer.span("serve.warmup", i as u64, || {
                                    client.round_trip(&lines[i]).unwrap_or_default()
                                })
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("warm-up client panicked"))
                .collect()
        });
        for line in warm.iter().flatten() {
            if !line.starts_with("ok ") {
                self.problems.push(format!("warm-up response {line:?}"));
            }
        }
    }

    fn timed(&mut self, seconds: f64, tracer: &Tracer) -> Phase {
        let before = self.stats();
        let clock = PhaseClock::start();
        let (lines, seed, clock_ref) = (&self.lines, self.seed, &clock);
        let runs: Vec<Vec<Response>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut rng = Rng::new(seed, 1000 + c as u64);
                        let mut deck: Vec<usize> = Vec::new();
                        let mut out = Vec::new();
                        while clock_ref.elapsed_s() < seconds {
                            if deck.is_empty() {
                                deck = (0..lines.len()).collect();
                                rng.shuffle(&mut deck);
                            }
                            let config = deck.pop().expect("refilled above");
                            let op = out.len() as u64;
                            let t0 = Instant::now();
                            let line = tracer.span("serve.request", op, || {
                                client.round_trip(&lines[config]).unwrap_or_default()
                            });
                            out.push(Response {
                                config,
                                rtt_ms: t0.elapsed().as_secs_f64() * 1e3,
                                line,
                            });
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load client panicked"))
                .collect()
        });
        let responses: Vec<Response> = runs.into_iter().flatten().collect();
        let samples: Vec<f64> = responses
            .iter()
            .filter(|r| r.line.starts_with("ok "))
            .map(|r| r.rtt_ms)
            .collect();
        let rejected = responses
            .iter()
            .filter(|r| field(&r.line, "code").is_some())
            .count() as u64;
        let phase = clock.finish(samples, responses.len() as u64, rejected);
        let after = self.stats();
        if tracer.is_on() {
            self.traced_from = self.responses.len();
            self.stats = before.zip(after);
        }
        self.responses.extend(responses);
        phase
    }

    fn check(&mut self, tracer: &Tracer) -> Vec<String> {
        let mut problems = std::mem::take(&mut self.problems);
        // The benchmark's own build + profile of every config.
        let mut graphs: BTreeMap<&str, Graph> = BTreeMap::new();
        let mut direct = Vec::new();
        for (i, config) in self.configs.iter().enumerate() {
            let graph = graphs
                .entry(config.dataset.name())
                .or_insert_with(|| load(tracer, config.dataset, config.scale));
            let expect = match build(tracer, i as u64, graph, config) {
                Ok(run) => {
                    let profiler = GpuSpec::HwV100.profiler(&self.opts, config.dataset);
                    let p = profile_hw(tracer, i as u64, &run, profiler.as_ref());
                    format!(
                        "device_ms={:.4} e2e_ms={:.4} kernels={}",
                        p.device_time_ms(),
                        p.total_time_ms(),
                        p.kernels.len()
                    )
                }
                Err(e) => {
                    problems.push(format!("{}: {e}", config.label()));
                    String::new()
                }
            };
            direct.push(expect);
        }
        // Error responses count in `failed`; the check covers the rest.
        for r in self.responses.iter().filter(|r| r.line.starts_with("ok ")) {
            let served = format!(
                "device_ms={} e2e_ms={} kernels={}",
                field(&r.line, "device_ms").unwrap_or("-"),
                field(&r.line, "e2e_ms").unwrap_or("-"),
                field(&r.line, "kernels").unwrap_or("-"),
            );
            if served != direct[r.config] {
                problems.push(format!(
                    "{}: served {served} but a direct build gives {}",
                    self.configs[r.config].label(),
                    direct[r.config]
                ));
            }
        }
        problems
    }

    fn layers(&mut self, _tracer: &Tracer, m: &mut Metrics) {
        let traced = &self.responses[self.traced_from..];
        let ok: Vec<&Response> = traced
            .iter()
            .filter(|r| r.line.starts_with("ok "))
            .collect();
        let each = |f: &dyn Fn(&Response) -> f64| ok.iter().map(|r| f(r)).collect::<Vec<f64>>();
        m.put(
            "serve.queue_ms",
            median(&each(&|r| field_ms(&r.line, "queue_ms"))),
            "ms",
        );
        m.put(
            "serve.service_ms",
            median(&each(&|r| field_ms(&r.line, "service_ms"))),
            "ms",
        );
        m.put(
            "serve.net_ms",
            median(&each(&|r| r.rtt_ms - field_ms(&r.line, "latency_ms"))),
            "ms",
        );
        if let Some((before, after)) = &self.stats {
            stats_layers(before, after, m);
        }
    }

    fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            if let Some(first) = self.clients.first_mut() {
                let _ = first.round_trip("shutdown");
            }
            self.clients.clear();
            match server.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => self.problems.push(format!("server stopped with {e}")),
                Err(_) => self.problems.push("server thread panicked".to_string()),
            }
        }
    }
}

// ---------------------------------------------------------------------------
// serve-batched: open loop, in process.
// ---------------------------------------------------------------------------

/// Poisson arrival rate (requests per second): about half of what two
/// workers serve, so a slower host does not tip the queue into a growing
/// backlog, and high enough that bursts merge.
const RATE_PER_S: f64 = 8.0;
/// Seed of the one arrival schedule every `serve-batched` run replays.
const SCHEDULE_SEED: u64 = 0x005E_ED0F_A881;
/// Per-hop neighbour fanout of every ego-net request.
const FANOUT: [usize; 2] = [10, 10];
/// Merged batches re-checked after the timed phase, and solo requests.
const BATCHES_CHECKED: usize = 6;
const SOLOS_CHECKED: usize = 4;

/// One request of the timed phase.
struct Sent {
    node: u32,
    late_ms: f64,
    /// `None` when the server refused or dropped the request.
    done: Option<Completion>,
}

pub struct Batched {
    seed: u64,
    opts: BenchOpts,
    graph: Option<Graph>,
    server: Option<Server>,
    /// Seed nodes in a seeded order; each user asks once.
    nodes: Vec<u32>,
    next: usize,
    sent: Vec<Sent>,
    traced_from: usize,
    stats: Option<(ServerStats, ServerStats)>,
}

impl Batched {
    pub fn new(seed: u64) -> Batched {
        Batched {
            seed,
            opts: opts(),
            graph: None,
            server: None,
            nodes: Vec::new(),
            next: 0,
            sent: Vec::new(),
            traced_from: 0,
            stats: None,
        }
    }

    fn config(&self, node: u32) -> RunConfig {
        RunConfig {
            model: GnnModel::Gcn,
            comp: CompModel::Mp,
            dataset: Dataset::PubMed,
            seed: self.seed,
            functional_math: true,
            seed_node: Some(node),
            fanout: FANOUT.to_vec(),
            ..RunConfig::default()
        }
    }

    fn take_node(&mut self) -> u32 {
        let node = self.nodes[self.next % self.nodes.len()];
        self.next += 1;
        node
    }

    fn request(&mut self) -> (u32, ServeRequest) {
        let node = self.take_node();
        (node, ServeRequest::new(self.config(node), GpuSpec::HwV100))
    }
}

impl Workload for Batched {
    fn tail(&self) -> f64 {
        0.9
    }

    fn setups(&self) -> usize {
        5
    }

    fn setup(&mut self, tracer: &Tracer) {
        self.shutdown();
        let graph = load(tracer, Dataset::PubMed, 1.0);
        self.nodes = (0..graph.num_nodes() as u32).collect();
        Rng::new(self.seed, 7).shuffle(&mut self.nodes);
        self.next = 0;
        self.graph = Some(graph);
        let server = Server::start(ServeConfig {
            workers: WORKERS,
            queue_cap: 1 << 16,
            opts: self.opts.clone(),
            batch: Some(BatchPolicy {
                max_batch: 8,
                max_queue_delay_ms: 2.0,
                max_backlog: 0,
            }),
            ..ServeConfig::default()
        });
        self.server = Some(server);
    }

    fn timed(&mut self, seconds: f64, tracer: &Tracer) -> Phase {
        // A Poisson process conditioned on its count: `rate × seconds`
        // exponential gaps, stretched so the next arrival would fall at
        // the end of the phase. The schedule is one fixed draw: runs differ
        // in which users ask (the seed), not in how bursty the traffic is,
        // which would otherwise move the latency more than the server does.
        let mut rng = Rng::new(SCHEDULE_SEED, 100);
        let n = (RATE_PER_S * seconds).round().max(1.0) as usize;
        let mut due: Vec<f64> = Vec::with_capacity(n + 1);
        let mut t = 0.0;
        for _ in 0..=n {
            t += -(1.0 - rng.unit()).ln();
            due.push(t);
        }
        let stretch = seconds / t;
        due.truncate(n);
        due.iter_mut().for_each(|d| *d *= stretch);
        let server = self.server.take().expect("set-up started the server");
        let before = server.stats();
        let clock = PhaseClock::start();
        let start = Instant::now();
        let mut pending = Vec::with_capacity(due.len());
        for (op, &at) in due.iter().enumerate() {
            let due_at = start + Duration::from_secs_f64(at);
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let (node, req) = self.request();
            let sent_at = Instant::now();
            let rx = tracer.span("serve.submit", op as u64, || server.try_submit(req));
            let late_ms = sent_at.saturating_duration_since(due_at).as_secs_f64() * 1e3;
            pending.push((node, late_ms, rx));
        }
        let mut samples = Vec::new();
        let mut rejected = 0;
        let first = self.sent.len();
        for (node, late_ms, rx) in pending {
            let done = match rx {
                Ok(rx) => rx.recv().ok(),
                Err(_) => {
                    rejected += 1;
                    None
                }
            };
            if let Some(c) = &done {
                if c.outcome.is_ok() {
                    samples.push(late_ms + c.latency_ms);
                }
            }
            self.sent.push(Sent {
                node,
                late_ms,
                done,
            });
        }
        let phase = clock.finish(samples, due.len() as u64, rejected);
        if tracer.is_on() {
            self.traced_from = first;
            self.stats = Some((before, server.stats()));
        }
        self.server = Some(server);
        phase
    }

    fn check(&mut self, tracer: &Tracer) -> Vec<String> {
        let mut problems = Vec::new();
        let graph = self.graph.as_ref().expect("set-up loaded the graph");
        // Batches are identified by the profile their members share.
        let mut batches: BTreeMap<u64, Vec<(u64, u32, Arc<PipelineProfile>)>> = BTreeMap::new();
        let mut solos = Vec::new();
        // Failed and refused requests count in `failed`; the check covers
        // the rest.
        for s in &self.sent {
            let Some(c) = &s.done else { continue };
            let Ok(profile) = &c.outcome else { continue };
            let profile = profile.clone();
            if c.batch > 1 {
                let key = Arc::as_ptr(&profile) as u64;
                batches
                    .entry(key)
                    .or_default()
                    .push((c.id, s.node, profile));
            } else {
                solos.push((s.node, profile));
            }
        }
        // Rebuild a seeded sample of batches (in submission order) and of
        // solo requests.
        let mut groups: Vec<Vec<(u64, u32, Arc<PipelineProfile>)>> =
            batches.into_values().collect();
        for g in &mut groups {
            g.sort_by_key(|m| m.0);
        }
        groups.sort_by_key(|g| g[0].0);
        let mut rng = Rng::new(self.seed, 9);
        rng.shuffle(&mut groups);
        rng.shuffle(&mut solos);
        let profiler = GpuSpec::HwV100.profiler(&self.opts, Dataset::PubMed);
        for (b, group) in groups.iter().take(BATCHES_CHECKED).enumerate() {
            let configs: Vec<RunConfig> = group.iter().map(|m| self.config(m.1)).collect();
            let rebuilt = tracer.span("core.build_merged", b as u64, || {
                PipelineRun::build_merged(graph, &configs)
            });
            let (run, parts) = match rebuilt {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("merged rebuild of {} members: {e}", group.len()));
                    continue;
                }
            };
            let again = profile_hw(tracer, b as u64, &run, profiler.as_ref());
            if again != *group[0].2 {
                problems.push(format!(
                    "batch of {}: served profile differs from the rebuilt one",
                    group.len()
                ));
            }
            for ((_, node, _), part) in group.iter().zip(&parts) {
                let sub = NeighborSampler::new(FANOUT.to_vec())
                    .seed(self.seed)
                    .sample(graph, &[*node])
                    .expect("served nodes exist");
                let weights =
                    ModelWeights::init(GnnModel::Gcn, sub.graph.feature_dim(), 16, 2, self.seed);
                let full = reference::infer(GnnModel::Gcn, &sub.graph, &weights);
                let row =
                    gsuite_tensor::DenseMatrix::from_fn(1, full.cols(), |_, c| full.get(0, c));
                if let Err(e) = reference::within_tolerance(&part.output, &row) {
                    problems.push(format!("node {node} in a batch of {}: {e}", group.len()));
                }
            }
        }
        for (i, (node, served)) in solos.iter().take(SOLOS_CHECKED).enumerate() {
            match build(tracer, i as u64, graph, &self.config(*node)) {
                Ok(run) => {
                    if run.profile(profiler.as_ref()) != **served {
                        problems.push(format!(
                            "node {node}: served profile differs from a direct build"
                        ));
                    }
                }
                Err(e) => problems.push(format!("node {node}: {e}")),
            }
        }
        problems
    }

    fn layers(&mut self, _tracer: &Tracer, m: &mut Metrics) {
        let traced = &self.sent[self.traced_from..];
        let done: Vec<&Completion> = traced.iter().filter_map(|s| s.done.as_ref()).collect();
        let queue: Vec<f64> = done.iter().map(|c| c.queue_ms).collect();
        let service: Vec<f64> = done.iter().map(|c| c.service_ms).collect();
        let late: Vec<f64> = traced.iter().map(|s| s.late_ms).collect();
        m.put("serve.queue_ms", median(&queue), "ms");
        m.put("serve.service_ms", median(&service), "ms");
        m.put("loadgen.late_ms", percentile(&late, 0.95), "ms");
        if let Some((before, after)) = &self.stats {
            stats_layers(before, after, m);
        }
    }

    fn shutdown(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
