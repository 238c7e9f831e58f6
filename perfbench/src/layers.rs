//! Host-clock timings of single layers, each driven through the layer's
//! public functions with the workload's own generated op stream: UCR
//! active messages on a bare endpoint pair, an SDP socket pair, the
//! ASCII protocol codec, and the storage engine.
//!
//! Each timing repeats a fixed replay until its budget is spent (at
//! least [`MIN_REPS`] times) and reports the median over repetitions.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant; // lint:allow(R1) host-clock harness: per-layer wall time is the measurand

use mcproto::{encode_command, encode_response, parse_command, parse_response};
use mcproto::{Command, GetValue, Response, StoreVerb};
use mcstore::{SegmentedStore, SlabConfig, StoreConfig};
use rmc::{StoreModel, World, BASE_UNIX_TIME};
use simnet::{NodeId, SimDuration, Stack};
use socksim::{SocketAddr, DEFAULT_CONNECT_TIMEOUT};
use ucr::{AmData, Endpoint, FnHandler, SendOptions, UcrRuntime};

use crate::median;
use crate::spec::{Inputs, Op, Spec};

const MIN_REPS: usize = 3;
/// Ops replayed per repetition by the message-level timings.
const REPLAY_OPS: usize = 1_000;
const PORT: u16 = 11211;
const MSG_REQ: u16 = 1;
const MSG_RESP: u16 = 2;

/// Runs `rep` (which returns its own timed seconds and work units) until
/// `budget_s` of host time has passed, and returns the median ns/unit.
fn timed_reps(budget_s: f64, mut rep: impl FnMut() -> (f64, u64)) -> f64 {
    let start = Instant::now(); // lint:allow(R1) host-clock harness: bounds the timing budget
    let mut per_unit = Vec::new();
    while per_unit.len() < MIN_REPS || start.elapsed().as_secs_f64() < budget_s {
        let (secs, units) = rep();
        per_unit.push(secs * 1e9 / units.max(1) as f64);
    }
    median(per_unit)
}

fn replay(inputs: &Inputs) -> Vec<&Op> {
    inputs.interleaved().take(REPLAY_OPS).collect()
}

/// The ASCII command and response the op puts on the wire. Reads answer
/// with each key's preloaded value.
fn ascii_pair(inputs: &Inputs, op: &Op) -> (Command, Response) {
    let name = |k: u32| inputs.key_names[k as usize].clone();
    match op {
        Op::Set(k, ctr) => (
            Command::Store {
                verb: StoreVerb::Set,
                key: name(*k),
                flags: 0,
                exptime: 0,
                data: inputs.codec.encode(*k, *ctr),
                noreply: false,
            },
            Response::Stored,
        ),
        Op::Get(_) | Op::Mget(_) => (
            Command::Gets {
                keys: op.keys().iter().map(|&k| name(k)).collect(),
            },
            Response::Values(
                op.keys()
                    .iter()
                    .map(|&k| GetValue {
                        key: name(k),
                        flags: 0,
                        data: inputs.codec.encode(k, 0),
                        cas: Some(u64::from(k) + 1),
                    })
                    .collect(),
            ),
        ),
    }
}

/// `proto.host_ns_per_req`: encode + parse of each op's command and
/// response.
pub fn proto_ns_per_req(inputs: &Inputs, budget_s: f64) -> f64 {
    let pairs: Vec<(Command, Response)> = replay(inputs)
        .into_iter()
        .map(|op| ascii_pair(inputs, op))
        .collect();
    timed_reps(budget_s, || {
        let t = Instant::now(); // lint:allow(R1) host-clock harness: codec wall time is the measurand
        for (cmd, resp) in &pairs {
            let wire = encode_command(black_box(cmd));
            black_box(parse_command(&wire).expect("own encoding parses"));
            let wire = encode_response(black_box(resp));
            black_box(parse_response(&wire).expect("own encoding parses"));
        }
        (t.elapsed().as_secs_f64(), pairs.len() as u64)
    })
}

/// `socksim.host_ns_per_kib`: the op stream's ASCII bytes ping-ponged
/// over one connected SDP pair with `write_all`/`read_exact`.
pub fn socksim_ns_per_kib(inputs: &Inputs, seed: u64, budget_s: f64) -> f64 {
    let wire: Rc<Vec<(Vec<u8>, Vec<u8>)>> = Rc::new(
        replay(inputs)
            .into_iter()
            .map(|op| {
                let (cmd, resp) = ascii_pair(inputs, op);
                (encode_command(&cmd), encode_response(&resp))
            })
            .collect(),
    );
    let kib = (wire.iter().map(|(a, b)| a.len() + b.len()).sum::<usize>() as u64).div_ceil(1024);
    let world = World::cluster_b(seed, 2);
    let sim = world.sim().clone();
    let listener = world
        .socks
        .listen(Stack::Sdp, NodeId(1), PORT)
        .expect("fresh port");
    let server_wire = wire.clone();
    // The server answers the replay for as many repetitions as are run.
    sim.spawn(async move {
        let sock = listener.accept().await.expect("accept");
        sock.set_nodelay(true);
        loop {
            for (req, resp) in server_wire.iter() {
                sock.read_exact(req.len()).await.expect("request bytes");
                sock.write_all(resp).await.expect("response bytes");
            }
        }
    });
    let socks = world.socks.clone();
    let addr = SocketAddr {
        node: NodeId(1),
        port: PORT,
    };
    let sock = Rc::new(sim.block_on(async move {
        let sock = socks
            .connect(Stack::Sdp, NodeId(0), addr, DEFAULT_CONNECT_TIMEOUT)
            .await
            .expect("connect");
        sock.set_nodelay(true);
        sock
    }));
    timed_reps(budget_s, || {
        let (sock, wire) = (sock.clone(), wire.clone());
        sim.block_on(async move {
            let t = Instant::now(); // lint:allow(R1) host-clock harness: socket-layer wall time is the measurand
            for (req, resp) in wire.iter() {
                sock.write_all(req).await.expect("request bytes");
                let got = sock.read_exact(resp.len()).await.expect("response bytes");
                assert_eq!(&got, resp, "SDP pair corrupted a response");
            }
            (t.elapsed().as_secs_f64(), kib)
        })
    })
}

/// UCR request/response payload sizes the op implies.
fn ucr_sizes(inputs: &Inputs, op: &Op) -> (usize, usize) {
    let key_len = |k: u32| inputs.key_names[k as usize].len();
    match op {
        Op::Set(k, ctr) => (key_len(*k) + inputs.codec.len(*k, *ctr), 0),
        Op::Get(_) | Op::Mget(_) => (
            op.keys().iter().map(|&k| key_len(k)).sum(),
            op.keys()
                .iter()
                .map(|&k| key_len(k) + inputs.codec.len(k, 0))
                .sum(),
        ),
    }
}

/// `ucr.host_ns_per_msg`: the op stream's request/response sizes as
/// active messages between two bare runtimes (one echo per op).
pub fn ucr_ns_per_msg(inputs: &Inputs, seed: u64, budget_s: f64) -> f64 {
    let sizes: Rc<Vec<(usize, usize)>> = Rc::new(
        replay(inputs)
            .into_iter()
            .map(|op| ucr_sizes(inputs, op))
            .collect(),
    );
    let max = sizes.iter().map(|&(a, b)| a.max(b)).max().unwrap_or(0);
    let payload = Rc::new(vec![0x5au8; max]);
    let world = World::cluster_b(seed, 2);
    let sim = world.sim().clone();
    let server = UcrRuntime::new(&world.ib, NodeId(1));
    let reply_payload = payload.clone();
    server.register_handler(
        MSG_REQ,
        FnHandler(move |ep: &Endpoint, hdr: &[u8], _data: AmData| {
            let word = |at: usize| u64::from_le_bytes(hdr[at..at + 8].try_into().expect("8"));
            let (ctr, len) = (word(0), word(8) as usize);
            ep.post_message(
                MSG_RESP,
                hdr.to_vec(),
                reply_payload[..len].to_vec(),
                SendOptions {
                    target_ctr: ctr,
                    ..SendOptions::default()
                },
            );
        }),
    );
    let listener = server.listen(PORT).expect("fresh port");
    sim.spawn(async move {
        let _ep = listener.accept().await.expect("accept");
    });
    let client = UcrRuntime::new(&world.ib, NodeId(0));
    let replied = Rc::new(Cell::new(0usize));
    let replied2 = replied.clone();
    client.register_handler(
        MSG_RESP,
        FnHandler(move |_ep: &Endpoint, _hdr: &[u8], data: AmData| {
            replied2.set(replied2.get() + data.len());
        }),
    );
    let ctr = client.counter();
    let connecting = client.clone();
    let ep = sim.block_on(async move {
        connecting
            .connect(NodeId(1), PORT, SimDuration::from_millis(100))
            .await
            .expect("connect")
    });
    let expected: usize = sizes.iter().map(|&(_, b)| b).sum();
    // Replies bump the counter cumulatively across repetitions.
    let mut done = 0u64;
    timed_reps(budget_s, || {
        let (ep, ctr, sizes, payload) = (ep.clone(), ctr.clone(), sizes.clone(), payload.clone());
        let (before, base) = (replied.get(), done);
        done += sizes.len() as u64;
        let out = sim.block_on(async move {
            let t = Instant::now(); // lint:allow(R1) host-clock harness: message-layer wall time is the measurand
            for (i, &(req, resp)) in (1..).zip(sizes.iter()) {
                let mut hdr = ctr.id().to_le_bytes().to_vec();
                hdr.extend_from_slice(&(resp as u64).to_le_bytes());
                ep.send_message(MSG_REQ, &hdr, &payload[..req], SendOptions::default())
                    .await
                    .expect("send");
                ctr.wait_for(base + i, SimDuration::from_millis(100))
                    .await
                    .expect("echo");
            }
            (t.elapsed().as_secs_f64(), 2 * sizes.len() as u64)
        });
        assert_eq!(
            replied.get() - before,
            expected,
            "UCR pair lost response bytes"
        );
        out
    })
}

/// `store.host_ns_per_key`: the whole op/key stream replayed into a
/// preloaded [`SegmentedStore`] configured like the workload's server.
pub fn store_ns_per_key(spec: &Spec, inputs: &Inputs, budget_s: f64) -> f64 {
    let shards = match spec.store_model {
        StoreModel::Sharded(n) => n,
        StoreModel::Idealized | StoreModel::GlobalLock => 1,
    };
    let config = StoreConfig {
        slab: SlabConfig {
            mem_limit: spec.mem_limit,
            ..SlabConfig::default()
        },
        ..StoreConfig::default()
    };
    let ops: Vec<&Op> = inputs.interleaved().collect();
    let keys: u64 = ops.iter().map(|op| op.keys().len() as u64).sum();
    // Stored bytes do not change the engine's work; one buffer serves
    // every set at the write's generated length.
    let scratch = vec![0x5au8; spec.value_max];
    let now = BASE_UNIX_TIME;
    timed_reps(budget_s, || {
        let mut store = SegmentedStore::new(config, shards);
        for (k, name) in inputs.key_names.iter().enumerate() {
            store.set(name, &inputs.codec.encode(k as u32, 0), 0, 0, now);
        }
        let t = Instant::now(); // lint:allow(R1) host-clock harness: storage-engine wall time is the measurand
        for op in &ops {
            match op {
                Op::Set(k, ctr) => {
                    let v = &scratch[..inputs.codec.len(*k, *ctr)];
                    black_box(store.set(&inputs.key_names[*k as usize], v, 0, 0, now));
                }
                Op::Get(_) | Op::Mget(_) => {
                    for &k in op.keys() {
                        black_box(store.get(&inputs.key_names[k as usize], now));
                    }
                }
            }
        }
        (t.elapsed().as_secs_f64(), keys)
    })
}
