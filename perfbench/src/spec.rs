//! Workload definitions, seeded input generation, and the value codec
//! that makes every stored value checkable.
//!
//! Inputs are a pure function of `(workload, seed)`: per-client op lists
//! drawn from one [`SimRng`] in a fixed order. The program under test
//! only ever sees the generated keys and values.

use rmc::{StoreModel, Transport};
use simnet::{SimRng, Stack};

/// One named traffic mix on Cluster B.
#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub transport: Transport,
    /// Closed-loop clients, one per simulated node.
    pub clients: u32,
    /// Server worker threads.
    pub workers: usize,
    pub store_model: StoreModel,
    /// Server slab memory limit (`-m`), bytes.
    pub mem_limit: usize,
    /// Distinct keys, all preloaded during setup.
    pub keys: u32,
    /// Fraction of ops that are single-key sets.
    pub set_fraction: f64,
    /// Keys per read: 1 is a `get`, more is one `mget` of distinct keys.
    pub read_keys: usize,
    /// Inclusive value-size range, bytes (including the 16-byte header).
    pub value_min: usize,
    pub value_max: usize,
    /// Timed ops per client in one round.
    pub ops_per_client: usize,
    /// Serve gets with the one-sided RDMA read (UCR only).
    pub bypass_get: bool,
}

const MIB: usize = 1 << 20;
/// Zipf skew of key popularity in every workload (key id = popularity
/// rank).
const ZIPF: f64 = 0.99;

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Spec> {
    let ucr_get_small = Spec {
        name: "ucr_get_small",
        transport: Transport::Ucr,
        clients: 8,
        workers: 4,
        store_model: StoreModel::Idealized,
        mem_limit: 64 * MIB,
        keys: 10_000,
        set_fraction: 0.10,
        read_keys: 1,
        value_min: 24,
        value_max: 40,
        ops_per_client: 2_500,
        bypass_get: false,
    };
    vec![
        ucr_get_small.clone(),
        Spec {
            name: "sdp_large_mixed",
            transport: Transport::Sockets(Stack::Sdp),
            clients: 4,
            workers: 4,
            store_model: StoreModel::Idealized,
            mem_limit: 32 * MIB,
            keys: 4_096,
            set_fraction: 0.30,
            read_keys: 1,
            value_min: 2 << 10,
            value_max: 32 << 10,
            ops_per_client: 2_000,
            bypass_get: false,
        },
        Spec {
            name: "ucr_mget_sharded",
            transport: Transport::Ucr,
            clients: 8,
            workers: 8,
            store_model: StoreModel::Sharded(16),
            // Each of the 16 segments needs a page in every slab class
            // the 512 B-2 KB values use.
            mem_limit: 256 * MIB,
            keys: 10_000,
            set_fraction: 0.10,
            read_keys: 16,
            value_min: 512,
            value_max: 2 << 10,
            ops_per_client: 1_000,
            bypass_get: false,
        },
        Spec {
            name: "ucr_bypass_get",
            bypass_get: true,
            ..ucr_get_small
        },
    ]
}

pub fn find(name: &str) -> Option<Spec> {
    all().into_iter().find(|s| s.name == name)
}

impl Spec {
    /// Workload parameters for the provenance record, as JSON.
    pub fn params_json(&self) -> String {
        let model = match self.store_model {
            StoreModel::Idealized => "idealized".to_string(),
            StoreModel::GlobalLock => "global_lock".to_string(),
            StoreModel::Sharded(n) => format!("sharded({n})"),
        };
        format!(
            "{{\"transport\":\"{}\",\"clients\":{},\"workers\":{},\"store_model\":\"{}\",\
             \"mem_limit\":{},\"keys\":{},\"zipf\":{ZIPF},\"set_fraction\":{},\"read_keys\":{},\
             \"value_bytes\":[{},{}],\"ops_per_client\":{},\"bypass_get\":{}}}",
            self.transport.label(),
            self.clients,
            self.workers,
            model,
            self.mem_limit,
            self.keys,
            self.set_fraction,
            self.read_keys,
            self.value_min,
            self.value_max,
            self.ops_per_client,
            self.bypass_get
        )
    }
}

/// One client operation. Keys are ids; [`key_bytes`] names them.
#[derive(Clone, Debug)]
pub enum Op {
    Get(u32),
    /// Store write number `ctr` of the key (counter 0 is the preload).
    Set(u32, u32),
    Mget(Vec<u32>),
}

impl Op {
    /// Keys the op touches.
    pub fn keys(&self) -> &[u32] {
        match self {
            Op::Get(k) | Op::Set(k, _) => std::slice::from_ref(k),
            Op::Mget(ks) => ks,
        }
    }
}

/// Everything generated from one `(workload, seed)` pair.
pub struct Inputs {
    pub codec: Codec,
    /// Per-client op lists.
    pub per_client: Vec<Vec<Op>>,
    /// Highest write counter generated for each key (bounds a valid read).
    pub max_ctr: Vec<u32>,
    /// Key bytes by id.
    pub key_names: Vec<Vec<u8>>,
}

impl Inputs {
    /// Ops in generation order (round-robin over clients), the order the
    /// layer timings replay them in.
    pub fn interleaved(&self) -> impl Iterator<Item = &Op> {
        let n = self.per_client.iter().map(Vec::len).max().unwrap_or(0);
        (0..n).flat_map(move |i| self.per_client.iter().filter_map(move |ops| ops.get(i)))
    }
}

pub fn key_bytes(id: u32) -> Vec<u8> {
    format!("pb:{id:08}").into_bytes()
}

/// Parses a key produced by [`key_bytes`].
pub fn key_id(key: &[u8]) -> Option<u32> {
    std::str::from_utf8(key.strip_prefix(b"pb:")?)
        .ok()?
        .parse()
        .ok()
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let mut rng = SimRng::new(seed);
    let codec = Codec {
        seed,
        min: spec.value_min,
        max: spec.value_max,
    };
    let mut per_client: Vec<Vec<Op>> = (0..spec.clients)
        .map(|_| Vec::with_capacity(spec.ops_per_client))
        .collect();
    let mut max_ctr = vec![0u32; spec.keys as usize];
    let zipf = |rng: &mut SimRng| rng.gen_zipf(spec.keys as usize, ZIPF) as u32;
    // Op i of every client is drawn before op i + 1 of any, so write
    // counters grow in a client-independent order.
    for _ in 0..spec.ops_per_client {
        for ops in per_client.iter_mut() {
            let op = if rng.gen_bool(spec.set_fraction) {
                let k = zipf(&mut rng);
                max_ctr[k as usize] += 1;
                Op::Set(k, max_ctr[k as usize])
            } else if spec.read_keys == 1 {
                Op::Get(zipf(&mut rng))
            } else {
                let mut ks: Vec<u32> = Vec::with_capacity(spec.read_keys);
                while ks.len() < spec.read_keys {
                    let k = zipf(&mut rng);
                    if !ks.contains(&k) {
                        ks.push(k);
                    }
                }
                Op::Mget(ks)
            };
            ops.push(op);
        }
    }
    Inputs {
        codec,
        per_client,
        max_ctr,
        key_names: (0..spec.keys).map(key_bytes).collect(),
    }
}

/// The value rule: `[key id: u64 LE][write counter: u64 LE][body]`, with
/// the length and every body byte derived from `(seed, key, counter)`.
/// A read that returns bytes of two writes, the wrong key, or a write
/// that never happened fails [`Codec::check`].
#[derive(Clone, Copy, Debug)]
pub struct Codec {
    seed: u64,
    min: usize,
    max: usize,
}

pub const HEADER: usize = 16;

fn mix(mut x: u64) -> u64 {
    // splitmix64 finalizer
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Codec {
    fn base(&self, key: u32, ctr: u32) -> u64 {
        mix(self.seed ^ mix((u64::from(key) << 32) | u64::from(ctr)))
    }

    pub fn len(&self, key: u32, ctr: u32) -> usize {
        let span = (self.max - self.min + 1) as u64;
        self.min + (mix(self.base(key, ctr)) % span) as usize
    }

    fn body_word(base: u64, i: usize) -> u64 {
        base ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    pub fn encode(&self, key: u32, ctr: u32) -> Vec<u8> {
        let len = self.len(key, ctr);
        let base = self.base(key, ctr);
        let mut v = Vec::with_capacity(len);
        v.extend_from_slice(&u64::from(key).to_le_bytes());
        v.extend_from_slice(&u64::from(ctr).to_le_bytes());
        let mut i = 0;
        while v.len() < len {
            let w = Self::body_word(base, i).to_le_bytes();
            let take = (len - v.len()).min(8);
            v.extend_from_slice(&w[..take]);
            i += 1;
        }
        v
    }

    /// True when `data` is a value some generated write of `key` stored.
    pub fn check(&self, key: u32, data: &[u8], max_ctr: &[u32]) -> bool {
        if data.len() < HEADER {
            return false;
        }
        let word = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
        let (id, ctr) = (word(0), word(8));
        if id != u64::from(key) || ctr > u64::from(max_ctr[key as usize]) {
            return false;
        }
        let ctr = ctr as u32;
        if data.len() != self.len(key, ctr) {
            return false;
        }
        let base = self.base(key, ctr);
        let body = &data[HEADER..];
        let mut chunks = body.chunks_exact(8);
        let mut i = 0;
        for c in chunks.by_ref() {
            if u64::from_le_bytes(c.try_into().expect("8 bytes")) != Self::body_word(base, i) {
                return false;
            }
            i += 1;
        }
        let tail = chunks.remainder();
        tail == &Self::body_word(base, i).to_le_bytes()[..tail.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_round_trips_and_rejects_tampering() {
        let c = Codec {
            seed: 7,
            min: 20,
            max: 70,
        };
        let max_ctr = vec![3u32; 4];
        for ctr in 0..=3 {
            let v = c.encode(2, ctr);
            assert!(c.check(2, &v, &max_ctr));
            assert!(!c.check(1, &v, &max_ctr), "wrong key accepted");
            let mut torn = v.clone();
            let last = torn.len() - 1;
            torn[last] ^= 1;
            assert!(!c.check(2, &torn, &max_ctr), "torn value accepted");
        }
        assert!(
            !c.check(2, &c.encode(2, 4), &max_ctr),
            "unwritten counter accepted"
        );
    }

    #[test]
    fn same_seed_same_inputs() {
        let spec = find("ucr_mget_sharded").expect("workload");
        let (a, b) = (generate(&spec, 5), generate(&spec, 5));
        let fmt = |i: &Inputs| format!("{:?}", i.per_client);
        assert_eq!(fmt(&a), fmt(&b));
        assert_ne!(fmt(&a), fmt(&generate(&spec, 6)));
        assert_eq!(key_id(&key_bytes(42)), Some(42));
    }
}
