//! `serve-v1`: an in-process `hls_serve::Server` over loopback HTTP.
//!
//! A closed loop of (at most 2) clients sends a seeded mix, in rounds of
//! [`ROUND`] requests:
//! - reads: a few fixed `/v1/synthesize` templates, repeated, so they
//!   are answered from the response cache;
//! - writes: distinct (source, config) pairs walked in seeded order, so
//!   each misses the cache and synthesizes;
//! - a few `/v1/explore` and `/v1/batch` calls, pruned and exhaustive.
//!
//! Every response must be 200 and byte-identical (up to the `cache_hit`
//! flags) to the first response to the same template; every
//! synthesize response's latency and area must match an in-process
//! `Synthesizer` run of the same request.

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use hls_serve::api::{algorithm_str, control_str};
use hls_serve::{Server, ServerConfig, ServerHandle};
use hls_testkit::SplitMix64;
use hls_workloads::sources;

use crate::flow::DesignConfig;
use crate::gen::{shuffle, CONTROLS};
use crate::report::{layer_values, push_end_to_end, Outcome};
use crate::stats::{median, ratio, KindProfile, SetTimings};
use crate::trace::Tracer;
use crate::{Args, SetupTimes};

/// Requests per round; `wall_s` is the median round time, and each
/// latency percentile is the median over rounds of the round's
/// percentile (p99 has 10 samples beyond it in every round).
pub const ROUND: usize = 1000;
/// Read templates per seed.
const READS: usize = 16;
/// Share of writes and of explore/batch calls in the mix.
const WRITE_SHARE: f64 = 0.30;
const SWEEP_SHARE: f64 = 0.02;

const KERNELS: [&str; 5] = [
    sources::SQRT,
    sources::GCD,
    sources::DIFFEQ,
    sources::FIR4,
    sources::SUMSQ,
];

const ALGORITHMS: [hls_sched::Algorithm; 5] = [
    hls_sched::Algorithm::Asap,
    hls_sched::Algorithm::List(hls_sched::Priority::PathLength),
    hls_sched::Algorithm::List(hls_sched::Priority::Urgency),
    hls_sched::Algorithm::List(hls_sched::Priority::Mobility),
    hls_sched::Algorithm::FreedomBased { slack: 0 },
];

/// Number of distinct synthesize (kernel, config) pairs.
const PAIRS: usize = KERNELS.len() * 8 * ALGORITHMS.len() * CONTROLS.len() * 8;

/// Decodes pair index `i` into a kernel and configuration.
pub fn pair(i: usize) -> (&'static str, DesignConfig) {
    let (kernel, i) = (i % KERNELS.len(), i / KERNELS.len());
    let (fus, i) = (i % 8 + 1, i / 8);
    let (alg, i) = (i % ALGORITHMS.len(), i / ALGORITHMS.len());
    let (control, flags) = (i % CONTROLS.len(), i / CONTROLS.len());
    (
        KERNELS[kernel],
        DesignConfig {
            optimize: flags & 1 == 0,
            unroll: flags & 2 != 0,
            if_convert: flags & 4 != 0,
            fus,
            algorithm: ALGORITHMS[alg],
            control: CONTROLS[control],
        },
    )
}

fn synthesize_body(src: &str, cfg: &DesignConfig) -> String {
    format!(
        r#"{{"source":{src:?},"config":{{"fus":{},"algorithm":{:?},"control":{:?},"optimize":{},"unroll":{},"if_convert":{}}}}}"#,
        cfg.fus,
        algorithm_str(cfg.algorithm),
        control_str(cfg.control),
        cfg.optimize,
        cfg.unroll,
        cfg.if_convert
    )
}

/// What a request is in the mix; the discriminant indexes [`KIND_NAMES`].
/// The shares (see `README.md`) put p50 among the reads and p90, p99
/// among the writes; the run prints the kinds found at each percentile.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A repeated synthesize template, answered from the cache.
    Read,
    /// A synthesize pair sent for the first time in the run: a miss.
    Write,
    /// An explore or batch call.
    Sweep,
}

const KIND_NAMES: [&str; 3] = ["read", "write", "sweep"];

/// One request shape; `pair` names the synthesize pair it encodes.
struct Template {
    path: &'static str,
    body: String,
    pair: Option<usize>,
    kind: Kind,
}

/// The seeded request stream.
struct Mix {
    templates: Vec<Template>,
    /// Template index per write, in order; walked cyclically.
    write_order: Vec<usize>,
    reads: Vec<usize>,
    sweeps: Vec<usize>,
    rng: SplitMix64,
    next_write: usize,
}

impl Mix {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x5345_5256_4556_3100);
        let mut order: Vec<usize> = (0..PAIRS).collect();
        shuffle(&mut rng, &mut order);
        let mut templates = Vec::new();
        let mut add = |t: Template| {
            templates.push(t);
            templates.len() - 1
        };
        let synth = |i: usize, kind: Kind| {
            let (src, cfg) = pair(i);
            Template {
                path: "/v1/synthesize",
                body: synthesize_body(src, &cfg),
                pair: Some(i),
                kind,
            }
        };
        // Reads come from the tail of the order, writes walk the rest,
        // so no write ever repeats a read.
        let (writes, reads) = order.split_at(PAIRS - READS);
        let reads: Vec<usize> = reads.iter().map(|&i| add(synth(i, Kind::Read))).collect();
        let write_order: Vec<usize> = writes.iter().map(|&i| add(synth(i, Kind::Write))).collect();
        let mut sweeps = Vec::new();
        for (path, src) in [
            ("/v1/explore", sources::SQRT),
            ("/v1/batch", sources::DIFFEQ),
        ] {
            for prune in [false, true] {
                sweeps.push(add(Template {
                    path,
                    body: format!(
                        r#"{{"source":{src:?},"grid":{{"fus":[1,2,3],"algorithms":["asap","list/path"],"controls":["hardwired/binary","microcode"]}},"prune":{prune}}}"#
                    ),
                    pair: None,
                    kind: Kind::Sweep,
                }));
            }
        }
        Mix {
            templates,
            write_order,
            reads,
            sweeps,
            rng,
            next_write: 0,
        }
    }

    /// The next round's template indices.
    fn round(&mut self) -> Vec<usize> {
        (0..ROUND)
            .map(|_| {
                let u = self.rng.f64();
                if u < SWEEP_SHARE {
                    self.sweeps[self.rng.usize_in(0, self.sweeps.len())]
                } else if u < SWEEP_SHARE + WRITE_SHARE {
                    let t = self.write_order[self.next_write % self.write_order.len()];
                    self.next_write += 1;
                    t
                } else {
                    self.reads[self.rng.usize_in(0, self.reads.len())]
                }
            })
            .collect()
    }
}

/// One HTTP exchange, timed from the client.
struct Reply {
    status: u16,
    body: Vec<u8>,
    connect_ns: u64,
    ttfb_ns: u64,
    retry_after_ms: Option<u64>,
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Sends one request on a fresh connection and reads the whole
/// close-delimited response. Time to first byte is taken by peeking, so
/// the response itself is read by `hls_serve::http::read_response`.
fn fire(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    tr: &Tracer,
    item: u64,
) -> Result<Reply, String> {
    let t0 = Instant::now();
    let mut stream = tr
        .span("serve.connect", item, || {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            Ok::<_, std::io::Error>(stream)
        })
        .map_err(|e| format!("connect: {e}"))?;
    let connect_ns = ns(t0);
    let t1 = Instant::now();
    tr.span("serve.ttfb", item, || {
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: hls\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        stream.peek(&mut [0u8; 1])
    })
    .map_err(|e| format!("send/first byte: {e}"))?;
    let ttfb_ns = ns(t1);
    let r = tr
        .span("serve.read", item, move || {
            let r = hls_serve::http::read_response(&mut stream);
            drop(stream);
            r
        })
        .map_err(|e| format!("read: {e}"))?;
    Ok(Reply {
        status: r.status,
        retry_after_ms: r.header("retry-after-ms").and_then(|v| v.parse().ok()),
        body: r.body,
        connect_ns,
        ttfb_ns,
    })
}

/// The body with every `cache_hit` flag set to false and every
/// `cache_hits` count set to 0, since those legitimately differ between
/// a miss and its repeats. The result is still valid JSON.
pub fn normalize(body: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(body).replace("\"cache_hit\":true", "\"cache_hit\":false");
    let key = "\"cache_hits\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text.as_str();
    while let Some(at) = rest.find(key) {
        out.push_str(&rest[..at + key.len()]);
        out.push('0');
        rest = rest[at + key.len()..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out.into_bytes()
}

/// One finished request.
struct Sample {
    template: usize,
    latency_ms: f64,
    connect_ms: f64,
    ttfb_ms: f64,
    retries: u64,
    /// FNV-1a hash of the normalized body, or what went wrong.
    result: Result<u64, String>,
}

/// The first normalized body received per template.
type FirstBodies = Mutex<HashMap<usize, Vec<u8>>>;

/// Sends template `template`, retrying on 503 with the server's hinted
/// backoff, and keeps its body if it is the template's first.
fn request(
    addr: SocketAddr,
    mix: &Mix,
    template: usize,
    bodies: &FirstBodies,
    tr: &Tracer,
    item: u64,
) -> Sample {
    let t = &mix.templates[template];
    let t0 = Instant::now();
    let mut retries = 0;
    let reply = tr.span("item.request", item, || loop {
        match fire(addr, "POST", t.path, &t.body, tr, item) {
            Ok(r) if r.status == 503 && retries < 100 => {
                retries += 1;
                let wait = r.retry_after_ms.unwrap_or(100).clamp(1, 50);
                tr.span("serve.backoff", item, || {
                    std::thread::sleep(Duration::from_millis(wait))
                });
            }
            other => break other,
        }
    });
    let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (mut connect_ms, mut ttfb_ms) = (0.0, 0.0);
    let result = reply.and_then(|r| {
        connect_ms = r.connect_ns as f64 / 1e6;
        ttfb_ms = r.ttfb_ns as f64 / 1e6;
        if r.status == 200 {
            let body = normalize(&r.body);
            let hash = hls_testkit::fnv1a(&body);
            bodies
                .lock()
                .expect("body map lock")
                .entry(template)
                .or_insert(body);
            Ok(hash)
        } else {
            Err(format!(
                "HTTP {}: {}",
                r.status,
                String::from_utf8_lossy(&r.body)
            ))
        }
    });
    Sample {
        template,
        latency_ms,
        connect_ms,
        ttfb_ms,
        retries,
        result,
    }
}

/// Runs one round with `clients` closed-loop clients; returns the round
/// wall time and its samples.
fn round(
    addr: SocketAddr,
    mix: &Mix,
    plan: &[usize],
    bodies: &FirstBodies,
    clients: usize,
    tr: &Tracer,
    first_item: u64,
) -> (f64, Vec<Sample>) {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let samples = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&t) = plan.get(k) else { break };
                        out.push(request(addr, mix, t, bodies, tr, first_item + k as u64));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (t0.elapsed().as_secs_f64(), samples)
}

/// A running in-process server.
struct Running {
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start() -> std::io::Result<Self> {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            threads: crate::threads(),
            ..ServerConfig::default()
        })?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Running { handle, thread })
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(r) => r.map_err(|e| format!("server: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }

    /// `hls_serve_stage_seconds_total` (schedule, alloc, rtl).
    fn stage_seconds(&self) -> Result<[f64; 3], String> {
        let off = Tracer::new(false);
        let r = fire(self.addr(), "GET", "/v1/metrics", "", &off, 0)?;
        let text = String::from_utf8_lossy(&r.body);
        let mut out = [0.0; 3];
        for (i, stage) in ["schedule", "alloc", "rtl"].iter().enumerate() {
            let prefix = format!("hls_serve_stage_seconds_total{{stage=\"{stage}\"}} ");
            out[i] = text
                .lines()
                .find_map(|l| l.strip_prefix(prefix.as_str()))
                .and_then(|v| v.trim().parse().ok())
                .ok_or_else(|| format!("no {stage} stage counter in /v1/metrics"))?;
        }
        Ok(out)
    }
}

/// What set-up leaves for the timed phase.
struct Ready {
    mix: Mix,
    server: Running,
    warm: Vec<Sample>,
    bodies: FirstBodies,
}

/// Set-up: generate the mix, bind and start a server, warm it with every
/// read and sweep template. Returns the time taken and what it built.
fn setup(seed: u64) -> Result<(f64, Ready), String> {
    let t0 = Instant::now();
    let mix = Mix::new(seed);
    let server = Running::start().map_err(|e| format!("bind: {e}"))?;
    let bodies = FirstBodies::default();
    let off = Tracer::new(false);
    let warm: Vec<Sample> = mix
        .reads
        .iter()
        .chain(&mix.sweeps)
        .map(|&t| request(server.addr(), &mix, t, &bodies, &off, 0))
        .collect();
    let ready = Ready {
        mix,
        server,
        warm,
        bodies,
    };
    Ok((t0.elapsed().as_secs_f64(), ready))
}

/// Latency and area of a synthesize response body.
fn latency_area(body: &[u8]) -> Option<(u64, f64)> {
    let v = hls_serve::json::parse(std::str::from_utf8(body).ok()?).ok()?;
    Some((v.get("latency")?.as_u64()?, v.get("area")?.as_f64()?))
}

pub fn run(args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let (first, ready) = match setup(args.seed) {
        Ok(ready) => ready,
        Err(e) => {
            outcome.check(|| "setup".into(), Err(e));
            return outcome;
        }
    };
    let Ready {
        mut mix,
        server,
        warm,
        bodies,
    } = ready;
    let mut setups = SetupTimes::new(first, args.seconds);
    let clients = crate::threads();
    let off = Tracer::new(false);
    let tr = Tracer::new(args.trace);
    let mut walls = Vec::new();
    let mut timings = SetTimings::new(1);
    let mut traced_walls = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let mut traced_samples: Vec<Sample> = Vec::new();
    let mut stage_delta = [0.0f64; 3];
    let mut profile = KindProfile::new(&KIND_NAMES);
    let mut next_item = 0u64;
    let started = Instant::now();
    loop {
        let plan = mix.round();
        let (wall, s) = round(
            server.addr(),
            &mix,
            &plan,
            &bodies,
            clients,
            &off,
            next_item,
        );
        next_item += ROUND as u64;
        walls.push(wall);
        timings.record(0, wall, s.iter().map(|s| s.latency_ms).collect());
        profile.add_pass(
            s.iter()
                .map(|s| (mix.templates[s.template].kind as usize, s.latency_ms)),
        );
        samples.extend(s);
        if !args.trace {
            // A repeat binds and warms a server of its own, then stops it.
            setups.catch_up(started.elapsed().as_secs_f64(), || match setup(args.seed) {
                Ok((s, again)) => {
                    for w in &again.warm {
                        let ok = w.result.clone().map(|_| ());
                        outcome.check(|| format!("repeated set-up, template {}", w.template), ok);
                    }
                    outcome.check(|| "server shutdown".into(), again.server.stop());
                    s
                }
                Err(e) => {
                    outcome.check(|| "setup".into(), Err(e));
                    f64::NAN
                }
            });
        }
        if args.trace {
            let plan = mix.round();
            let before = server.stage_seconds();
            let (wall, s) = round(server.addr(), &mix, &plan, &bodies, clients, &tr, next_item);
            let after = server.stage_seconds();
            next_item += ROUND as u64;
            match (before, after) {
                (Ok(b), Ok(a)) => {
                    for i in 0..3 {
                        stage_delta[i] += a[i] - b[i];
                    }
                }
                (Err(e), _) | (_, Err(e)) => outcome.check(|| "metrics".into(), Err(e)),
            }
            traced_walls.push(wall);
            traced_samples.extend(s);
        }
        // Untraced runs go on at least until every pair has been served
        // once, so that the QoR sums cover the whole pair space.
        let covered = args.trace || mix.next_write >= mix.write_order.len();
        if covered && crate::should_stop(started, args.seconds, &walls, &traced_walls) {
            break;
        }
    }
    let (hits, lookups) = server_cache_totals(&server);
    outcome.check(|| "server shutdown".into(), server.stop());

    // Checks: status, byte identity per template, and latency/area of
    // every synthesize template against an in-process run.
    let bodies = bodies.into_inner().expect("body map lock");
    for s in warm.iter().chain(&samples).chain(&traced_samples) {
        let template = &mix.templates[s.template];
        let checked = s.result.clone().and_then(|hash| {
            let first = bodies.get(&s.template).map(|b| hls_testkit::fnv1a(b));
            if first == Some(hash) {
                Ok(())
            } else {
                Err("response bytes differ from the first response".into())
            }
        });
        outcome.check(|| format!("{} {}", template.path, s.template), checked);
    }
    let mut qor = (0.0, 0.0);
    let mut used: Vec<(&usize, &Vec<u8>)> = bodies.iter().collect();
    used.sort_by_key(|(t, _)| **t);
    for (&t, body) in used {
        let template = &mix.templates[t];
        let Some(p) = template.pair else { continue };
        let (src, cfg) = pair(p);
        let checked = match (latency_area(body), cfg.synthesizer().synthesize_source(src)) {
            (None, _) => Err("response has no latency/area".to_string()),
            (_, Err(e)) => Err(format!("in-process synthesis: {e}")),
            (Some((lat, area)), Ok(r)) if lat == r.latency && area == r.area.total() => {
                qor.0 += lat as f64;
                qor.1 += area;
                Ok(())
            }
            (Some(got), Ok(r)) => Err(format!(
                "served {got:?}, in-process ({}, {})",
                r.latency,
                r.area.total()
            )),
        };
        outcome.check(|| format!("in-process check of template {t}"), checked);
    }

    if args.trace {
        let trace = tr.take();
        let passes = traced_walls.len();
        let mut values = layer_values(&trace, passes);
        let n = traced_samples.len().max(1) as f64;
        let client_ms: f64 = traced_samples.iter().map(|s| s.latency_ms).sum();
        let stage_ms = stage_delta.iter().sum::<f64>() * 1e3;
        let connect: Vec<f64> = traced_samples.iter().map(|s| s.connect_ms).collect();
        let ttfb: Vec<f64> = traced_samples.iter().map(|s| s.ttfb_ms).collect();
        values.insert("serve.connect_ms".into(), median(&connect));
        values.insert("serve.ttfb_ms".into(), median(&ttfb));
        values.insert("serve.overhead_ms".into(), (client_ms - stage_ms) / n);
        values.insert("serve.cache_hit_ratio".into(), ratio(hits, lookups));
        values.insert(
            "serve.shed_retries".into(),
            traced_samples.iter().map(|s| s.retries as f64).sum::<f64>() / passes as f64,
        );
        let stages = [
            "serve.stage_schedule_s",
            "serve.stage_alloc_s",
            "serve.stage_rtl_s",
        ];
        for (name, delta) in stages.into_iter().zip(stage_delta) {
            values.insert(name.into(), delta / passes as f64);
        }
        crate::finish_traced(args, &trace, values, &walls, &traced_walls, &mut outcome);
    } else {
        eprintln!("serve-v1 mix: {}", profile.summary());
        push_end_to_end(&mut outcome, setups.times(), &timings, qor);
    }
    outcome
}

/// Response-cache (hits, lookups) from the server's metrics registry.
fn server_cache_totals(server: &Running) -> (f64, f64) {
    let (hits, misses) = server.handle.metrics().cache_totals();
    (hits as f64, (hits + misses) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_blanks_cache_flags_only() {
        let a = normalize(br#"{"cache_hit":true,"latency":3}"#);
        let b = normalize(br#"{"cache_hit":false,"latency":3}"#);
        assert_eq!(a, b);
        assert_eq!(
            normalize(br#"{"summary":{"cache_hits":12,"total":4}}"#),
            br#"{"summary":{"cache_hits":0,"total":4}}"#.to_vec()
        );
        assert!(hls_serve::json::parse(std::str::from_utf8(&a).unwrap()).is_ok());
    }

    #[test]
    fn the_mix_is_a_function_of_the_seed() {
        let bodies = |seed| {
            let mut m = Mix::new(seed);
            let plan = [m.round(), m.round()].concat();
            plan.iter()
                .map(|&t| m.templates[t].body.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(bodies(3), bodies(3));
        assert_ne!(bodies(3), bodies(4));
        let mut m = Mix::new(3);
        let plan = m.round();
        let writes = plan.iter().filter(|t| m.write_order.contains(t)).count();
        let reads = plan.iter().filter(|t| m.reads.contains(t)).count();
        assert!(
            writes > ROUND / 5 && reads > ROUND / 2,
            "{writes} writes, {reads} reads"
        );
    }
}
