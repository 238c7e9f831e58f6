//! One round: a fresh Cluster-B world built from the seed, preloaded and
//! warmed (set-up), then every client's op list run as a closed loop
//! (timed phase). Virtual-clock results and layer counts come back in a
//! [`Virt`] map that must repeat bit for bit for the same seed; host-clock
//! times come back beside it. Each round runs in a process of its own
//! (see `main.rs`): a dropped world keeps its parked tasks alive, so
//! rounds sharing a process would pile up memory.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant; // lint:allow(R1) host-clock harness: wall time of set-up and timed phase is a measurand

use mcstore::{SlabConfig, StoreConfig};
use rmc::{McClient, McClientConfig, McError, McServer, McServerConfig, Value, World};
use simnet::{NodeId, PathStage, Profiler, ProfilerConfig, SimDuration};

use crate::spec::{key_id, Inputs, Op, Spec};

const SERVER: NodeId = NodeId(0);
/// Pipelined requests per connection while preloading.
const PRELOAD_DEPTH: usize = 16;
/// Keys stored per pipelined preload batch.
const PRELOAD_BATCH: usize = 64;
/// Hottest keys each client reads once before timing, so connections,
/// receive buffers and bypass descriptors are warm.
const WARM_KEYS: u32 = 64;

/// Everything a round measures on the virtual clock, plus every layer
/// count, by name. All integers, so equal seeds must give equal maps bit
/// for bit; the map is also what a round process reports to its parent.
///
/// Keys: `elapsed_ns` (timed phase, all clients released at once until
/// the last finishes), `lat.{count,sum_ns,p50_ns,p99_ns,digest}` over
/// per-request latencies, `keys_requested`/`keys_returned`, `attempted`
/// (set-up included) and `failed` (`McError`s plus value-check
/// mismatches; a miss is not a failure), the layer counters of
/// [`counts`] as timed-phase deltas, and on traced rounds the profiler's
/// `path.<stage>_ns`, `path.completed` and `path.unmatched`.
pub type Virt = BTreeMap<String, u64>;

pub struct Round {
    pub virt: Virt,
    /// Host seconds for world build, server start, preload and warm-up.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Peak resident set (`VmHWM`) of the process at the round's end,
    /// MiB: the round is the only work its process did.
    pub rss_mib: f64,
}

/// The map without the traced-only profiler block: what an untraced and
/// a traced round of one seed must agree on.
pub fn untraced_view(v: &Virt) -> Virt {
    v.iter()
        .filter(|(k, _)| !k.starts_with("path."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Nearest-rank quantile of sorted samples.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// FNV-1a over the samples: latencies must repeat exactly, not just
/// their summary.
fn digest(xs: &[u64]) -> u64 {
    xs.iter()
        .flat_map(|x| x.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

#[derive(Default)]
struct Tally {
    lat_ns: Vec<u64>,
    keys_requested: u64,
    keys_returned: u64,
    attempted: u64,
    failed: u64,
}

pub fn run(spec: &Spec, inputs: &Rc<Inputs>, seed: u64, traced: bool) -> Round {
    let setup_start = Instant::now(); // lint:allow(R1) host-clock harness: set-up time is a measurand
    let world = World::cluster_b(seed, spec.clients + 1);
    let server = McServer::start(
        &world,
        SERVER,
        McServerConfig {
            workers: spec.workers,
            store: StoreConfig {
                slab: SlabConfig {
                    mem_limit: spec.mem_limit,
                    ..SlabConfig::default()
                },
                ..StoreConfig::default()
            },
            store_model: spec.store_model,
            ..McServerConfig::default()
        },
    );
    let sim = world.sim().clone();
    if traced {
        // Detail mode must be on before clients exist: they pick
        // node-prefixed request ids from it, which the profiler needs to
        // tell concurrent clients' ops apart.
        world.cluster.tracer().set_detail(true);
    }
    let clients: Vec<McClient> = (0..spec.clients)
        .map(|c| {
            McClient::new(
                &world,
                NodeId(1 + c),
                McClientConfig {
                    pipeline_depth: PRELOAD_DEPTH,
                    bypass_get: spec.bypass_get,
                    ..McClientConfig::single(spec.transport, SERVER)
                },
            )
        })
        .collect();

    // Preload: client c stores counter 0 of every key k with
    // k % clients == c (pipelined), then reads the hottest keys once.
    let mut preload = Vec::new();
    for (c, client) in clients.iter().enumerate() {
        let client = client.clone();
        let inputs = inputs.clone();
        let clients_n = spec.clients as usize;
        preload.push(sim.spawn(async move {
            let ids: Vec<u32> = (c as u32..inputs.max_ctr.len() as u32)
                .step_by(clients_n)
                .collect();
            let mut failed = 0;
            // Batches bound the values alive at once (up to 32 KB each).
            for batch in ids.chunks(PRELOAD_BATCH) {
                let values: Vec<Vec<u8>> =
                    batch.iter().map(|&k| inputs.codec.encode(k, 0)).collect();
                let items: Vec<(&[u8], &[u8])> = batch
                    .iter()
                    .zip(&values)
                    .map(|(&k, v)| (inputs.key_names[k as usize].as_slice(), v.as_slice()))
                    .collect();
                failed += match client.set_many(&items, 0, 0).await {
                    Ok(results) => results.iter().filter(|r| r.is_err()).count() as u64,
                    Err(_) => items.len() as u64,
                };
            }
            let warm = WARM_KEYS.min(inputs.max_ctr.len() as u32);
            for k in 0..warm {
                let got = client.get(&inputs.key_names[k as usize]).await;
                failed += u64::from(!get_ok(&inputs, k, &got));
            }
            (ids.len() as u64 + u64::from(warm), failed)
        }));
    }
    let sim2 = sim.clone();
    let (preload_attempted, preload_failed) = sim.block_on(async move {
        let (mut attempted, mut failed) = (0, 0);
        for h in preload {
            let (a, f) = h.await;
            attempted += a;
            failed += f;
        }
        // Let workers and completions drain before the snapshot.
        sim2.sleep(SimDuration::from_millis(1)).await;
        (attempted, failed)
    });
    let setup_s = setup_start.elapsed().as_secs_f64();

    let before = counts(&world, &server, &clients, spec.workers);
    for (name, g) in world.cluster.metrics().gauges() {
        if name.starts_with("mc.node0.worker") && name.ends_with(".queue_depth") {
            g.reset_watermarks();
        }
    }
    let profiler =
        traced.then(|| Profiler::attach(world.cluster.tracer(), ProfilerConfig::default()));

    let timed_start = Instant::now(); // lint:allow(R1) host-clock harness: timed-phase wall time is a measurand
    let t0 = sim.now();
    let loops: Vec<_> = clients
        .iter()
        .enumerate()
        .map(|(c, client)| sim.spawn(client_loop(client.clone(), inputs.clone(), c, sim.clone())))
        .collect();
    let sim2 = sim.clone();
    let (tally, t_end) = sim.block_on(async move {
        let mut all = Tally::default();
        for h in loops {
            let t = h.await;
            all.lat_ns.extend(t.lat_ns);
            all.keys_requested += t.keys_requested;
            all.keys_returned += t.keys_returned;
            all.attempted += t.attempted;
            all.failed += t.failed;
        }
        (all, sim2.now())
    });
    let timed_s = timed_start.elapsed().as_secs_f64();

    let after = counts(&world, &server, &clients, spec.workers);
    let mut virt: Virt = after
        .iter()
        .map(|(k, v)| (k.to_string(), v - before.get(k).copied().unwrap_or(0)))
        .collect();
    // A watermark, not a running total: the timed-phase high.
    virt.insert("server.queue_depth_high".into(), queue_depth_high(&world));
    if let Some(p) = profiler {
        for s in PathStage::ALL {
            virt.insert(
                format!("path.{}_ns", s.label()),
                p.stage_total(s).as_nanos(),
            );
        }
        virt.insert("path.completed".into(), p.completed());
        virt.insert("path.unmatched".into(), p.unmatched_events());
    }
    server.shutdown();

    let mut lat = tally.lat_ns;
    lat.sort_unstable();
    for (k, v) in [
        ("elapsed_ns", (t_end - t0).as_nanos()),
        ("lat.count", lat.len() as u64),
        ("lat.sum_ns", lat.iter().sum()),
        ("lat.p50_ns", quantile(&lat, 0.50)),
        ("lat.p99_ns", quantile(&lat, 0.99)),
        ("lat.digest", digest(&lat)),
        ("keys_requested", tally.keys_requested),
        ("keys_returned", tally.keys_returned),
        ("attempted", tally.attempted + preload_attempted),
        ("failed", tally.failed + preload_failed),
    ] {
        virt.insert(k.into(), v);
    }
    Round {
        virt,
        setup_s,
        timed_s,
        rss_mib: peak_rss_mib(),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    // Host-side read, like the wall clock above. R1 has no pattern for
    // `/proc`, so a waiver here would be flagged stale (W0).
    let status = std::fs::read_to_string("/proc/self/status").expect("reading /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// A single-key read passes when it misses or returns a value that
/// follows the value rule for `key`; an error fails it.
fn get_ok(inputs: &Inputs, key: u32, got: &Result<Option<Value>, McError>) -> bool {
    match got {
        Ok(Some(v)) => inputs.codec.check(key, &v.data, &inputs.max_ctr),
        Ok(None) => true,
        Err(_) => false,
    }
}

/// One closed-loop client: the next op is issued when the previous one
/// completes. Every hit is checked against the value rule.
async fn client_loop(client: McClient, inputs: Rc<Inputs>, c: usize, sim: simnet::Sim) -> Tally {
    let mut t = Tally {
        lat_ns: Vec::with_capacity(inputs.per_client[c].len()),
        ..Tally::default()
    };
    let name = |k: u32| inputs.key_names[k as usize].as_slice();
    for op in &inputs.per_client[c] {
        let start = sim.now();
        t.attempted += 1;
        let ok = match op {
            Op::Get(k) => {
                let got = client.get(name(*k)).await;
                t.keys_requested += 1;
                t.keys_returned += u64::from(matches!(got, Ok(Some(_))));
                get_ok(&inputs, *k, &got)
            }
            Op::Set(k, ctr) => {
                let value = inputs.codec.encode(*k, *ctr);
                client.set(name(*k), &value, 0, 0).await.is_ok()
            }
            Op::Mget(ks) => {
                t.keys_requested += ks.len() as u64;
                let names: Vec<&[u8]> = ks.iter().map(|&k| name(k)).collect();
                match client.mget(&names).await {
                    Ok(hits) => {
                        t.keys_returned += hits.len() as u64;
                        hits.len() <= ks.len()
                            && hits.iter().all(|(key, v)| {
                                key_id(key).is_some_and(|k| {
                                    ks.contains(&k)
                                        && inputs.codec.check(k, &v.data, &inputs.max_ctr)
                                })
                            })
                    }
                    Err(_) => false,
                }
            }
        };
        if !ok {
            t.failed += 1;
        }
        t.lat_ns.push((sim.now() - start).as_nanos());
    }
    t
}

/// Cumulative layer counters, read through public accessors only (no
/// registry name is created).
fn counts(
    world: &World,
    server: &McServer,
    clients: &[McClient],
    workers: usize,
) -> BTreeMap<&'static str, u64> {
    let mut m = BTreeMap::new();
    let sim = world.sim();
    m.insert("engine.events", sim.events_executed());
    m.insert("engine.polls", sim.task_polls());

    let node = world.cluster.node(SERVER);
    m.insert("fabric.hca_busy_ns", node.hca.busy_total().as_nanos());
    m.insert("fabric.hca_jobs", node.hca.jobs());
    m.insert("fabric.kernel_busy_ns", node.kernel.busy_total().as_nanos());
    m.insert("fabric.kernel_jobs", node.kernel.jobs());

    let locks = server.lock_stats();
    m.insert("vlock.acquires", locks.iter().map(|l| l.acquires).sum());
    m.insert("vlock.contended", locks.iter().map(|l| l.contended).sum());
    m.insert(
        "vlock.wait_ns",
        locks.iter().map(|l| l.wait_total.as_nanos()).sum(),
    );
    m.insert(
        "vlock.hold_ns",
        locks.iter().map(|l| l.hold_total.as_nanos()).sum(),
    );

    let runtimes: Vec<_> = server
        .ucr_runtime()
        .into_iter()
        .chain(clients.iter().filter_map(McClient::ucr_runtime))
        .collect();
    let ucr = |f: fn(&ucr::RtStats) -> u64| runtimes.iter().map(|rt| f(rt.stats())).sum::<u64>();
    m.insert("ucr.msgs", ucr(|s| s.messages_sent.get()));
    m.insert("ucr.rndv", ucr(|s| s.rndv_delivered.get()));
    m.insert("ucr.progress_wakes", ucr(|s| s.progress_wakes.get()));
    m.insert("ucr.completions", ucr(|s| s.progress_completions.get()));
    m.insert("ucr.mr_cache_hits", ucr(|s| s.mr_cache_hits.get()));
    m.insert("ucr.mr_cache_misses", ucr(|s| s.mr_cache_misses.get()));
    m.insert("ucr.bypass_reads", ucr(|s| s.bypass_reads.get()));
    m.insert("ucr.bypass_retries", ucr(|s| s.bypass_retries.get()));
    m.insert("ucr.bypass_fallbacks", ucr(|s| s.bypass_fallbacks.get()));

    let metrics = world.cluster.metrics();
    m.insert(
        "server.wakes",
        (0..workers)
            .map(|w| metrics.counter_value(&format!("mc.node0.worker{w}.wakes")))
            .sum(),
    );
    m.insert(
        "server.batch_items",
        (0..workers)
            .map(|w| metrics.counter_value(&format!("mc.node0.worker{w}.batch_items")))
            .sum(),
    );
    m.insert(
        "client.batch_fallback_ops",
        clients
            .iter()
            .map(|c| {
                metrics.counter_value(&format!("client.node{}.batch_fallback_ops", c.node().0))
            })
            .sum(),
    );

    let st = server.store_stats();
    m.insert("store.get_hits", st.get_hits);
    m.insert("store.get_misses", st.get_misses);
    m.insert("store.evictions", st.evictions);
    m
}

fn queue_depth_high(world: &World) -> u64 {
    world
        .cluster
        .metrics()
        .gauges()
        .iter()
        .filter(|(n, _)| n.starts_with("mc.node0.worker") && n.ends_with(".queue_depth"))
        .map(|(_, g)| g.high() as u64)
        .max()
        .unwrap_or(0)
}
