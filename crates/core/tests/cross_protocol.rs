//! Cross-protocol equivalence: one scripted session run against an
//! observed server over each of the four wire protocols — UCR active
//! messages, ASCII over SDP, the binary protocol over SDP, and UDP over
//! IPoIB — must produce equal replies step by step, equal store counters
//! in `stats`, and equal hot-key read/write tallies. Every wire decodes
//! into the same request and is served by the same executor, so any
//! divergence is a codec bug.

use mcproto::{arith_extras, BinFrame, BinOpcode};
use rmc::{
    McClient, McClientConfig, McServer, McServerConfig, ObservatoryConfig, Transport, World,
};
use simnet::{NodeId, SimDuration, Stack};
use socksim::SocketAddr;

const SRV: NodeId = NodeId(0);
const CLI: NodeId = NodeId(1);

/// `stats` lines that describe the store itself (the rest — request
/// counters per transport family, UCR runtime traffic, service-time
/// summaries — legitimately differ between wires).
const STORE_COUNTERS: [&str; 10] = [
    "curr_items",
    "bytes",
    "get_hits",
    "get_misses",
    "cmd_set",
    "evictions",
    "reclaimed",
    "cas_hits",
    "cas_badval",
    "total_items",
];

/// The four wires, by name and client configuration.
fn protocols() -> Vec<(&'static str, McClientConfig)> {
    let single = |t| McClientConfig::single(t, SRV);
    vec![
        ("ucr", single(Transport::Ucr)),
        ("ascii/sdp", single(Transport::Sockets(Stack::Sdp))),
        (
            "binary/sdp",
            McClientConfig {
                binary_protocol: true,
                ..single(Transport::Sockets(Stack::Sdp))
            },
        ),
        ("udp/ipoib", single(Transport::Udp(Stack::Ipoib))),
    ]
}

fn pick(stats: &[(String, String)], names: &[&str]) -> Vec<(String, String)> {
    stats
        .iter()
        .filter(|(k, _)| names.contains(&k.as_str()))
        .cloned()
        .collect()
}

/// Runs the script over one protocol on a fresh Cluster B world and
/// returns `(step, reply)` pairs: every client verb with hits and
/// misses, a cas mismatch, a non-numeric incr, touch, flush, and the
/// `slabs`/`hot`/`reset` stats sub-reports, closing with the store
/// counters from the general report.
fn session(cfg: McClientConfig) -> Vec<(&'static str, String)> {
    let world = World::cluster_b(42, 4);
    let _server = McServer::start(
        &world,
        SRV,
        McServerConfig {
            observatory: Some(ObservatoryConfig::default()),
            ..McServerConfig::default()
        },
    );
    let c = McClient::new(&world, CLI, cfg);
    world.sim().block_on(async move {
        let mut log: Vec<(&'static str, String)> = Vec::new();
        macro_rules! step {
            ($name:literal, $e:expr) => {
                log.push(($name, format!("{:?}", $e.await)))
            };
        }
        step!("set", c.set(b"alpha", b"one", 7, 0));
        step!("get hit", c.get(b"alpha"));
        step!("get miss", c.get(b"nope"));
        step!("add existing", c.add(b"alpha", b"x", 0, 0));
        step!("add fresh", c.add(b"beta", b"two", 0, 0));
        step!("replace missing", c.replace(b"gamma", b"x", 0, 0));
        step!("replace", c.replace(b"beta", b"deux", 3, 0));
        step!("append", c.append(b"beta", b"-tail"));
        step!("prepend", c.prepend(b"beta", b"head-"));
        step!("append missing", c.append(b"gamma", b"x"));
        let cas = c.get(b"alpha").await.unwrap().unwrap().cas;
        step!("cas", c.cas(b"alpha", b"uno", 0, 0, cas));
        step!("cas mismatch", c.cas(b"alpha", b"eins", 0, 0, cas));
        step!("cas missing", c.cas(b"gamma", b"x", 0, 0, cas));
        step!("mget", c.mget(&[b"alpha", b"nope", b"beta"]));
        step!("set counter", c.set(b"n", b"41", 0, 0));
        step!("incr", c.incr(b"n", 1));
        step!("decr clamps", c.decr(b"n", 100));
        step!("incr missing", c.incr(b"gamma", 1));
        step!("incr non-numeric", c.incr(b"alpha", 1));
        step!("touch hit", c.touch(b"alpha", 60));
        step!("touch miss", c.touch(b"gamma", 60));
        step!("delete hit", c.delete(b"n"));
        step!("delete miss", c.delete(b"n"));
        step!(
            "set_many",
            c.set_many(&[(b"m1".as_ref(), b"v1".as_ref()), (b"m2", b"v2")], 0, 0)
        );
        step!("get_many", c.get_many(&[b"m1", b"nope", b"m2"]));
        step!("version", c.version());
        step!("stats slabs", c.stats_report("slabs"));
        // The hot table minus its per-second rates (wire latencies differ).
        let hot = c.stats_report("hot").await.map(|lines| {
            let timeless = lines
                .into_iter()
                .filter(|(k, _)| !k.ends_with(".rate_per_sec"));
            timeless.collect::<Vec<_>>()
        });
        log.push(("stats hot", format!("{hot:?}")));
        step!("stats bogus", c.stats_report("bogus"));
        step!("flush", c.flush_all());
        step!("get flushed", c.get(b"alpha"));
        step!("stats reset", c.stats_report("reset"));
        step!("set after reset", c.set(b"delta", b"four", 0, 0));
        step!("get after reset", c.get(b"delta"));
        let stats = c.stats().await.unwrap();
        log.push((
            "store counters",
            format!("{:?}", pick(&stats, &STORE_COUNTERS)),
        ));
        let hot = c.stats_report("hot").await.unwrap();
        log.push((
            "hot reads/writes",
            format!("{:?}", pick(&hot, &["wl.reads", "wl.writes"])),
        ));
        log
    })
}

#[test]
fn every_protocol_replies_and_counts_alike() {
    let runs: Vec<(&str, Vec<(&str, String)>)> = protocols()
        .into_iter()
        .map(|(name, cfg)| (name, session(cfg)))
        .collect();
    let (base_name, base) = &runs[0];
    for (name, log) in &runs[1..] {
        assert_eq!(log.len(), base.len());
        for ((step, want), (_, got)) in base.iter().zip(log) {
            assert_eq!(got, want, "step `{step}`: {name} vs {base_name}");
        }
    }
    // The script really exercised the store and the observatory.
    let counters = &base[base.len() - 2].1;
    assert!(counters.contains("(\"get_hits\", \"1\")"), "{counters}");
    let hot = &base[base.len() - 1].1;
    assert!(hot.contains("(\"wl.writes\", \"1\")"), "{hot}");
}

#[test]
fn binary_sets_count_no_get_hits() {
    let world = World::cluster_b(42, 4);
    let _server = McServer::start(&world, SRV, McServerConfig::default());
    let cfg = McClientConfig {
        binary_protocol: true,
        ..McClientConfig::single(Transport::Sockets(Stack::Sdp), SRV)
    };
    let c = McClient::new(&world, CLI, cfg);
    world.sim().block_on(async move {
        c.set(b"k1", b"v1", 0, 0).await.unwrap();
        c.set(b"k2", b"v2", 0, 0).await.unwrap();
        let stats = c.stats().await.unwrap();
        let hits = pick(&stats, &["get_hits"]);
        assert_eq!(hits, [("get_hits".to_string(), "0".to_string())]);
    });
}

#[test]
fn binary_incr_creates_a_missing_counter_from_its_initial_value() {
    // The client library never asks for creation (its extras carry the
    // all-ones exptime), so speak raw frames: two increments of a missing
    // key with initial value 40 and a real expiry.
    let world = World::cluster_b(42, 4);
    let _server = McServer::start(&world, SRV, McServerConfig::default());
    let socks = world.socks.clone();
    let numbers = world.sim().block_on(async move {
        let dst = SocketAddr {
            node: SRV,
            port: 11211,
        };
        let timeout = SimDuration::from_millis(250);
        let sock = socks.connect(Stack::Sdp, CLI, dst, timeout).await.unwrap();
        let mut wire = Vec::new();
        for opaque in [1, 2] {
            let mut f = BinFrame::request(BinOpcode::Increment, opaque);
            f.key = b"ctr".to_vec();
            f.extras = arith_extras(5, 40, 0);
            wire.extend(f.encode());
        }
        sock.write_all(&wire).await.unwrap();
        let (mut buf, mut got) = (Vec::new(), Vec::new());
        while got.len() < 2 {
            match BinFrame::parse(&buf).unwrap() {
                Some((f, used)) => {
                    buf.drain(..used);
                    got.push(u64::from_be_bytes(f.value.as_slice().try_into().unwrap()));
                }
                None => buf.extend(sock.read(64 * 1024).await.unwrap()),
            }
        }
        got
    });
    assert_eq!(
        numbers,
        [40, 45],
        "created at the initial value, then incremented"
    );
}
