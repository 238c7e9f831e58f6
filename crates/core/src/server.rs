//! The Memcached server (paper §V).
//!
//! One server process per node, preserving the upstream architecture the
//! paper extends: an event-driven dispatcher accepts connections and hands
//! each one to a **worker thread in round-robin order**; that worker then
//! serves every request of the connection. Both client families are served
//! concurrently by the same process:
//!
//! * **Sockets clients** speak the ASCII protocol over any of the
//!   byte-stream transports (the unmodified baseline);
//! * **UCR clients** speak typed active messages: the request's header
//!   handler runs in the UCR progress engine and enqueues work to the
//!   connection's worker; the worker executes against the store and
//!   responds with AM 2 targeting the counter named in AM 1 (§V-B, §V-C).
//!
//! Workers are simulated threads: each occupies itself for the service
//! time of a request, which is what caps server throughput in Figure 6.
//!
//! Whatever the wire, a worker serves a request the same way: the wire's
//! decoder turns it into the AM request header, the one executor
//! (`exec`) charges service time and runs it against the store, and the
//! wire's encoder turns the reply back into its own framing.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::{Rc, Weak};

use mcproto::{
    encode_response, parse_command, udp_fragment, BinFrame, BinOpcode, Command, Response, UdpFrame,
    MAGIC_REQUEST,
};
use mcstore::{
    ClassId, SegmentedStore, ShardRouter, SlabAllocator, SlabEvent, Store, StoreConfig, Value,
};
use simnet::metrics::{Histogram, Metrics};
use simnet::sync::{self, Receiver, Sender};
use simnet::trace::{Layer, Track};
use simnet::vlock::{VLock, VLockMeters};
use simnet::{NodeId, Sim, SimDuration, Stack, Tracer};
use socksim::DgramSocket;
use socksim::Socket;
use ucr::{AmData, AmHandler, Endpoint, SendOptions, UcrMemory, UcrRuntime};

use crate::am_wire::{
    DirReq, DirResp, McOp, ReqHeader, RespHeader, RespStatus, BYPASS_VERSION_BYTES, MSG_MC_DIR_REQ,
    MSG_MC_DIR_RESP, MSG_MC_REQ, MSG_MC_RESP,
};
use crate::codec::{ascii_request, ascii_response, bin_request, bin_response};
use crate::framing::{FrameReader, ReadError};
use crate::observatory::{ObservatoryConfig, WorkloadObservatory};
use crate::world::World;

mod exec;
pub(crate) use exec::Reply;

/// Simulated epoch: the store's unix clock starts here (spring 2011).
pub const BASE_UNIX_TIME: u32 = 1_300_000_000;

/// Version string the server reports.
pub const SERVER_VERSION: &str = "1.4.5-rmc";

/// How store access is serialized across workers (paper §V-A).
///
/// Upstream memcached wraps the whole cache — hash table, LRU, slab
/// allocator — in one global `cache_lock`; adding worker threads past the
/// point where that lock saturates buys nothing (the flat curves of
/// Figure 6's multi-worker runs). The simulation can model that lock, or
/// idealize it away, or replace it with hash-routed segments the way
/// later memcached/scaling work does.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StoreModel {
    /// Store access costs CPU time but never contends: the historical
    /// model every existing experiment was run under. The default —
    /// schedules are bit-identical to pre-`StoreModel` builds.
    #[default]
    Idealized,
    /// One virtual-time lock serializes the hash/item portion of every
    /// request's service time across all workers, reproducing upstream
    /// memcached's flat worker-scaling curve.
    GlobalLock,
    /// The store is split into this many hash-routed segments (rounded up
    /// to a power of two), each with its own lock, slab arena, and stat
    /// counters. UCR dispatch routes requests to workers by key-hash
    /// shard affinity so a shard's lock is only ever contended when
    /// shards outnumber workers.
    Sharded(usize),
}

/// Server configuration.
#[derive(Clone)]
pub struct McServerConfig {
    /// Service port for all transports (memcached's 11211).
    pub port: u16,
    /// Worker threads (memcached `-t`, paper uses a runtime parameter).
    pub workers: usize,
    /// Storage engine settings.
    pub store: StoreConfig,
    /// Accept UCR (RDMA) clients over native InfiniBand.
    pub enable_ucr: bool,
    /// Accept UCR clients over RoCE too, when the cluster's Ethernet
    /// adapters support it (paper SVII future work).
    pub enable_roce: bool,
    /// Byte-stream transports to listen on.
    pub socket_stacks: Vec<Stack>,
    /// Also serve the memcached UDP protocol on the same stacks (the
    /// SIII Facebook baseline: connection-less gets).
    pub enable_udp: bool,
    /// Attach a workload observatory (hot-key sketch, tail exemplars,
    /// SLO tracking; surfaced via `stats hot`/`stats slo`/
    /// `stats exemplars`). `None` — the default — registers nothing and
    /// keeps every stats surface byte-identical to an unobserved server.
    pub observatory: Option<ObservatoryConfig>,
    /// Lock-contention model for store access. [`StoreModel::Idealized`]
    /// (the default) registers no locks and no shard metrics, keeping
    /// every schedule and stats surface byte-identical to earlier builds.
    pub store_model: StoreModel,
}

impl Default for McServerConfig {
    fn default() -> Self {
        McServerConfig {
            port: 11211,
            workers: 4,
            store: StoreConfig::default(),
            enable_ucr: true,
            enable_roce: true,
            socket_stacks: vec![Stack::Sdp, Stack::Ipoib, Stack::TenGigEToe, Stack::OneGigE],
            enable_udp: true,
            observatory: None,
            store_model: StoreModel::default(),
        }
    }
}

/// Server-level counters.
#[derive(Default)]
pub struct SrvStats {
    /// Connections accepted (all transports).
    pub connections: Cell<u64>,
    /// Requests served over UCR.
    pub ucr_requests: Cell<u64>,
    /// Requests served over sockets.
    pub sock_requests: Cell<u64>,
}

enum WorkItem {
    Ucr {
        ep: Endpoint,
        req: ReqHeader,
        data: Vec<u8>,
    },
    /// One shard's slice of a multi-shard `Mget`, routed to that shard's
    /// affine worker: an ordinary one-shard multi-get. Parts share a
    /// [`MgetMerge`]; the last part to finish encodes the combined response.
    UcrMgetPart {
        ep: Endpoint,
        merge: Rc<RefCell<MgetMerge>>,
        part: ReqHeader,
        /// Each part key's index in the original request.
        idxs: Vec<usize>,
    },
    Sock {
        sock: Rc<Socket>,
        cmd: Command,
    },
    SockBin {
        sock: Rc<Socket>,
        frame: BinFrame,
    },
    SockUdp {
        sock: Rc<DgramSocket>,
        src: socksim::SocketAddr,
        request_id: u16,
        cmd: Command,
    },
}

/// Scatter/gather state for a multi-shard `Mget` split at dispatch.
///
/// Slots are indexed by the key's position in the original request so the
/// merged response lists entries in request order regardless of which
/// shard finishes last.
struct MgetMerge {
    req: ReqHeader,
    slots: Vec<Option<Value>>,
    remaining: usize,
}

struct SrvInner {
    node: NodeId,
    sim: Sim,
    store: RefCell<SegmentedStore>,
    /// Lock-contention model this server runs under.
    model: StoreModel,
    /// Key→segment policy, cached so dispatch can route without touching
    /// the store. Has one segment under `Idealized`/`GlobalLock`.
    router: ShardRouter,
    /// Virtual-time locks guarding store access: empty under `Idealized`,
    /// one under `GlobalLock`, one per segment under `Sharded`.
    locks: Vec<Rc<VLock>>,
    /// Request ids for the id-less wires (socket streams, UDP), keying
    /// their trace and lock spans; starts at 1 so no span is keyed by a
    /// literal zero.
    sock_op: Cell<u64>,
    workers: Vec<Sender<WorkItem>>,
    next_worker: Cell<usize>,
    ep_workers: RefCell<HashMap<u64, usize>>,
    worker_fixed: SimDuration,
    hash_lookup: SimDuration,
    running: Cell<bool>,
    stats: SrvStats,
    ucr: RefCell<Option<UcrRuntime>>,
    roce: RefCell<Option<UcrRuntime>>,
    /// Cross-layer event tracer (cluster-wide; adds no virtual time).
    tracer: Rc<Tracer>,
    /// Cluster metrics registry: per-worker queue-depth gauges and
    /// batch-drain counters land here (adds no virtual time).
    metrics: Rc<Metrics>,
    /// Per-operation worker service-time histograms, keyed by
    /// [`McOp::label`]; surfaced through `stats`.
    op_hist: RefCell<HashMap<&'static str, Rc<Histogram>>>,
    /// Cached handles for the per-slab-class occupancy/eviction gauges,
    /// created lazily for populated classes only (a default store has
    /// dozens of classes, most never touched).
    slab_gauges: RefCell<HashMap<usize, ClassGauges>>,
    /// Store-level occupancy gauges (`mc.nodeN.store.*`).
    items_gauge: Rc<simnet::metrics::Gauge>,
    bytes_gauge: Rc<simnet::metrics::Gauge>,
    /// Item-directory mirrors for the bypass-GET path, one per RDMA
    /// fabric (`[ib, roce]`). Empty until a client's first
    /// `MSG_MC_DIR_REQ` lands on that fabric.
    mirrors: [Rc<BypassDir>; 2],
    /// Set once any directory request has been served; gates the store's
    /// slab-event tracking and the post-op mirror sync.
    bypass_on: Cell<bool>,
    /// Workload observatory (hot keys, exemplars, SLOs), when attached.
    observatory: Option<Rc<WorkloadObservatory>>,
}

/// Gauge handles for one slab class (`mc.nodeN.slab.classC.*`).
struct ClassGauges {
    used: Rc<simnet::metrics::Gauge>,
    free: Rc<simnet::metrics::Gauge>,
    occupancy: Rc<simnet::metrics::Gauge>,
    evictions: Rc<simnet::metrics::Gauge>,
}

/// A running Memcached server.
#[derive(Clone)]
pub struct McServer {
    inner: Rc<SrvInner>,
}

struct ReqDispatch {
    srv: Weak<SrvInner>,
}

impl AmHandler for ReqDispatch {
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], data: AmData) {
        let Some(srv) = self.srv.upgrade() else {
            return;
        };
        if !srv.running.get() {
            return;
        }
        let Some(req) = ReqHeader::decode(hdr) else {
            return;
        };
        let data = data.into_vec().unwrap_or_default();
        // Request landed and is decoded: the request-wire stage ends at
        // the dispatch hand-off.
        srv.tracer.instant(
            Layer::Core,
            "dispatch",
            srv.node,
            Track::Main,
            req.req_id,
            data.len() as u64,
            srv.sim.now(),
        );
        srv.stats.ucr_requests.set(srv.stats.ucr_requests.get() + 1);
        // Under `Sharded`, keyed requests go to the owning shard's affine
        // worker and multi-shard Mgets are split into per-shard parts.
        // Everything else keeps the upstream policy: every request of a
        // connection is served by the worker the connection was assigned
        // to (paper §V-A).
        if matches!(srv.model, StoreModel::Sharded(_)) {
            if req.op == McOp::Mget {
                let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                for (i, k) in req.keys.iter().enumerate() {
                    groups.entry(srv.router.index(k)).or_default().push(i);
                }
                if groups.len() > 1 {
                    let parts: Vec<_> = groups
                        .into_iter()
                        .map(|(shard, idxs)| {
                            let keys = idxs.iter().map(|&i| req.keys[i].clone()).collect();
                            let part =
                                ReqHeader::with_keys(McOp::Mget, req.req_id, req.ctr_id, keys);
                            (shard, part, idxs)
                        })
                        .collect();
                    let merge = Rc::new(RefCell::new(MgetMerge {
                        slots: req.keys.iter().map(|_| None).collect(),
                        remaining: parts.len(),
                        req,
                    }));
                    for (shard, part, idxs) in parts {
                        let _ =
                            srv.workers[srv.worker_for_shard(shard)].send(WorkItem::UcrMgetPart {
                                ep: ep.clone(),
                                merge: merge.clone(),
                                part,
                                idxs,
                            });
                    }
                    return;
                }
            }
            if let Some(k) = req.keys.first() {
                let widx = srv.worker_for_shard(srv.router.index(k));
                let _ = srv.workers[widx].send(WorkItem::Ucr {
                    ep: ep.clone(),
                    req,
                    data,
                });
                return;
            }
        }
        let widx = srv.worker_for_ep(ep.id());
        let _ = srv.workers[widx].send(WorkItem::Ucr {
            ep: ep.clone(),
            req,
            data,
        });
    }
}

/// Which RDMA fabric a directory handler serves (index into
/// `SrvInner::mirrors`).
#[derive(Clone, Copy)]
enum FabricSide {
    Ib = 0,
    Roce = 1,
}

/// Per-fabric mirror directory for the server-CPU-bypass GET path
/// (the paper's one-sided §IV-B primitive applied to `get`).
///
/// The store's slab pages are plain host memory, invisible to the HCA, so
/// clients cannot RDMA-read them directly. A `BypassDir` keeps an
/// RDMA-registered **mirror** of every slab page holding at least one
/// item a client requested a descriptor for. A mirror page lays chunks
/// out at the slab page's offsets; the last 8 bytes of each chunk-sized
/// slot (slack the 48-byte modeled item header guarantees) carry the
/// item's seqlock version word, so a single RDMA read fetches value
/// bytes and version together and the client can detect a concurrent
/// writer without a second round trip.
#[derive(Default)]
struct BypassDir {
    /// Mirrored slab pages keyed `(segment, class, page)` — slab page
    /// indices are per-segment arenas, so the segment disambiguates.
    pages: RefCell<HashMap<(usize, u8, u32), MirrorPage>>,
}

/// One RDMA-registered mirror of a slab page.
struct MirrorPage {
    mem: UcrMemory,
    chunk_size: usize,
    /// Chunks clients may hold descriptors for: added when a descriptor
    /// is served or the chunk is rewritten while mirrored, removed when
    /// the item dies. When this empties the page is retired — dropping
    /// the `MirrorPage` deregisters its MR, so a stale cached descriptor
    /// faults (`AccessViolation`) instead of silently reading memory the
    /// allocator has reassigned. That hard fault is the server half of
    /// the pin-down-cache fix.
    published: HashSet<u32>,
}

impl MirrorPage {
    /// Copies one chunk's raw bytes and current version word from the
    /// slab page into the mirror.
    fn sync_chunk(&self, slabs: &SlabAllocator, class: ClassId, page: u32, chunk: u32) {
        let raw = slabs.chunk_raw(class, page, chunk);
        let base = chunk as usize * self.chunk_size;
        self.mem
            .write(base, &raw[..self.chunk_size - BYPASS_VERSION_BYTES]);
        self.mem.write(
            base + self.chunk_size - BYPASS_VERSION_BYTES,
            &slabs.version_at(class, page, chunk).to_le_bytes(),
        );
    }
}

impl BypassDir {
    /// Serves one directory lookup. The key resolves read-only — no LRU
    /// bump, no stats — and the whole call runs inline in the UCR
    /// progress engine: a bypassed GET never wakes a worker thread.
    fn serve(&self, srv: &SrvInner, rt: &UcrRuntime, req: &DirReq) -> DirResp {
        if !srv.bypass_on.get() {
            srv.bypass_on.set(true);
            srv.store.borrow_mut().set_event_tracking(true);
        }
        let now = srv.now_secs();
        let store = srv.store.borrow();
        let Some((seg, item)) = store.locate(&req.key, now) else {
            return DirResp::miss(req.req_id);
        };
        let slabs = store.segment(seg).slabs();
        let (class, pidx, chunk) = (item.loc.class, item.loc.page(), item.loc.chunk());
        let chunk_size = slabs.chunk_size(class);
        let mut pages = self.pages.borrow_mut();
        let page = pages.entry((seg, class.0, pidx)).or_insert_with(|| {
            let per_page = slabs.chunks_per_page(class);
            MirrorPage {
                mem: rt.register_memory(per_page as usize * chunk_size),
                chunk_size,
                published: HashSet::new(),
            }
        });
        // Snapshot (or defensively re-sync) the served chunk; every later
        // store mutation reaches the mirror through the slab-event drain.
        page.sync_chunk(slabs, class, pidx, chunk);
        page.published.insert(chunk);
        let base = chunk as usize * chunk_size;
        let window = page
            .mem
            .descriptor(base + item.klen as usize, chunk_size - item.klen as usize);
        DirResp {
            req_id: req.req_id,
            found: true,
            node: window.node.0,
            rkey: window.rkey,
            offset: window.offset,
            len: window.len,
            vlen: item.vlen,
            flags: item.flags,
            cas: item.cas,
            exp: item.exp,
            version: item.version,
        }
    }

    /// Applies one segment's batch of slab events to the mirrored pages.
    /// `Written` refreshes chunk bytes and version; `Invalidated` bumps
    /// only the version word so an in-flight client read observes the
    /// mismatch. Pages whose published set empties are retired (MR
    /// deregistered).
    fn apply(&self, segment: &Store, seg: usize, events: &[SlabEvent]) {
        let slabs = segment.slabs();
        let mut pages = self.pages.borrow_mut();
        for ev in events {
            let loc = ev.loc();
            let Some(page) = pages.get_mut(&(seg, loc.class.0, loc.page())) else {
                continue;
            };
            match ev {
                SlabEvent::Written { .. } => {
                    page.sync_chunk(slabs, loc.class, loc.page(), loc.chunk());
                    page.published.insert(loc.chunk());
                }
                SlabEvent::Invalidated { version, .. } => {
                    let base = loc.chunk() as usize * page.chunk_size;
                    page.mem.write(
                        base + page.chunk_size - BYPASS_VERSION_BYTES,
                        &version.to_le_bytes(),
                    );
                    page.published.remove(&loc.chunk());
                }
            }
        }
        pages.retain(|_, p| !p.published.is_empty());
    }
}

/// Inline handler for `MSG_MC_DIR_REQ`: answers item-directory lookups
/// from the progress engine without involving any worker thread.
struct DirDispatch {
    srv: Weak<SrvInner>,
    side: FabricSide,
}

impl AmHandler for DirDispatch {
    fn on_complete(&self, ep: &Endpoint, hdr: &[u8], _data: AmData) {
        let Some(srv) = self.srv.upgrade() else {
            return;
        };
        if !srv.running.get() {
            return;
        }
        let Some(req) = DirReq::decode(hdr) else {
            return;
        };
        let rt = match self.side {
            FabricSide::Ib => srv.ucr.borrow().clone(),
            FabricSide::Roce => srv.roce.borrow().clone(),
        };
        let Some(rt) = rt else { return };
        let resp = srv.mirrors[self.side as usize].serve(&srv, &rt, &req);
        // A directory request is a client-direct read of this key: the
        // hot-key sketch must see it even though no worker ever will.
        if let Some(obs) = srv.observatory.as_ref() {
            obs.observe_key(&req.key, false, None);
        }
        srv.tracer.instant(
            Layer::Core,
            "dir_lookup",
            srv.node,
            Track::Main,
            req.req_id,
            resp.found as u64,
            srv.sim.now(),
        );
        ep.post_message(
            MSG_MC_DIR_RESP,
            resp.encode(),
            Vec::new(),
            SendOptions {
                target_ctr: req.ctr_id,
                ..Default::default()
            },
        );
    }
}

impl McServer {
    /// Starts a server on `node` of `world`.
    pub fn start(world: &World, node: NodeId, config: McServerConfig) -> McServer {
        let sim = world.sim().clone();
        let profile = world.profile();
        let mut worker_txs = Vec::new();
        let mut worker_rxs = Vec::new();
        for _ in 0..config.workers.max(1) {
            let (tx, rx) = sync::channel();
            worker_txs.push(tx);
            worker_rxs.push(rx);
        }
        // `Idealized` and `GlobalLock` keep the classic unsharded layout;
        // `Sharded(n)` splits the arena (memory cap divided losslessly).
        let shards = match config.store_model {
            StoreModel::Idealized | StoreModel::GlobalLock => 1,
            StoreModel::Sharded(n) => n,
        };
        let store = SegmentedStore::new(config.store, shards);
        let router = *store.router();
        // One lock per serialization domain. `Idealized` has none: lock
        // setup registers metrics and tracer bindings, and the default
        // model must leave every observable surface untouched.
        let locks: Vec<Rc<VLock>> = match config.store_model {
            StoreModel::Idealized => Vec::new(),
            StoreModel::GlobalLock => vec![VLock::new(&sim)],
            StoreModel::Sharded(_) => (0..router.count()).map(|_| VLock::new(&sim)).collect(),
        };
        for (s, lock) in locks.iter().enumerate() {
            let prefix = format!("mc.node{}.shard{}", node.0, s);
            let metrics = world.cluster.metrics();
            lock.bind_meters(VLockMeters {
                ops: metrics.counter(&format!("{prefix}.ops")),
                lock_wait_ns: metrics.counter(&format!("{prefix}.lock_wait_ns")),
                lock_hold_ns: metrics.counter(&format!("{prefix}.lock_hold_ns")),
                contended: metrics.counter(&format!("{prefix}.contended")),
            });
            lock.set_tracer(world.cluster.tracer().clone(), node);
        }
        let inner = Rc::new(SrvInner {
            node,
            sim: sim.clone(),
            store: RefCell::new(store),
            model: config.store_model,
            router,
            locks,
            sock_op: Cell::new(1),
            workers: worker_txs,
            next_worker: Cell::new(0),
            ep_workers: RefCell::new(HashMap::new()),
            worker_fixed: profile.host.worker_fixed,
            hash_lookup: profile.host.hash_lookup,
            running: Cell::new(true),
            stats: SrvStats::default(),
            ucr: RefCell::new(None),
            roce: RefCell::new(None),
            tracer: world.cluster.tracer().clone(),
            metrics: world.cluster.metrics().clone(),
            op_hist: RefCell::new(HashMap::new()),
            slab_gauges: RefCell::new(HashMap::new()),
            items_gauge: world
                .cluster
                .metrics()
                .gauge(&format!("mc.node{}.store.curr_items", node.0)),
            bytes_gauge: world
                .cluster
                .metrics()
                .gauge(&format!("mc.node{}.store.bytes", node.0)),
            mirrors: [Rc::default(), Rc::default()],
            bypass_on: Cell::new(false),
            observatory: config
                .observatory
                .as_ref()
                .map(|cfg| WorkloadObservatory::new(cfg, node.0, world.cluster.metrics())),
        });

        for (widx, rx) in worker_rxs.into_iter().enumerate() {
            let weak = Rc::downgrade(&inner);
            sim.spawn(worker_loop(weak, rx, widx as u32));
        }

        if config.enable_ucr {
            let rt = start_ucr_listener(&sim, &inner, &world.ib, node, config.port, FabricSide::Ib);
            *inner.ucr.borrow_mut() = Some(rt);
        }
        if config.enable_roce {
            if let Some(roce) = &world.roce {
                let rt =
                    start_ucr_listener(&sim, &inner, roce, node, config.port, FabricSide::Roce);
                *inner.roce.borrow_mut() = Some(rt);
            }
        }

        if config.enable_udp {
            for stack in &config.socket_stacks {
                if !world.profile().supports(*stack) || !stack.is_sockets() {
                    continue;
                }
                let Ok(udp) = world.socks.udp_bind(*stack, node, config.port) else {
                    continue;
                };
                let weak = Rc::downgrade(&inner);
                sim.spawn(udp_receiver(weak, Rc::new(udp)));
            }
        }

        for stack in &config.socket_stacks {
            if !world.profile().supports(*stack) || !stack.is_sockets() {
                continue;
            }
            let Ok(listener) = world.socks.listen(*stack, node, config.port) else {
                continue;
            };
            let weak = Rc::downgrade(&inner);
            let sim2 = sim.clone();
            sim.spawn(async move {
                while let Ok(sock) = listener.accept().await {
                    let Some(srv) = weak.upgrade() else { break };
                    if !srv.running.get() {
                        break;
                    }
                    sock.set_nodelay(true);
                    srv.stats.connections.set(srv.stats.connections.get() + 1);
                    let widx = srv.next_worker();
                    let weak2 = Rc::downgrade(&srv);
                    drop(srv);
                    sim2.spawn(conn_reader(weak2, Rc::new(sock), widx));
                }
            });
        }

        McServer { inner }
    }

    /// The node this server runs on.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// Server counters.
    pub fn stats(&self) -> &SrvStats {
        &self.inner.stats
    }

    /// Storage-engine statistics.
    pub fn store_stats(&self) -> mcstore::StoreStats {
        self.inner.store.borrow().stats()
    }

    /// Live item count.
    pub fn curr_items(&self) -> u64 {
        self.inner.store.borrow().curr_items()
    }

    /// The lock-contention model this server runs under.
    pub fn store_model(&self) -> StoreModel {
        self.inner.model
    }

    /// Number of store segments (1 unless [`StoreModel::Sharded`]).
    pub fn shard_count(&self) -> usize {
        self.inner.store.borrow().shard_count()
    }

    /// Per-lock contention statistics, one entry per serialization
    /// domain: one for [`StoreModel::GlobalLock`], one per segment for
    /// [`StoreModel::Sharded`], empty under [`StoreModel::Idealized`]
    /// (which has no locks).
    pub fn lock_stats(&self) -> Vec<simnet::vlock::VLockStats> {
        self.inner.locks.iter().map(|l| l.stats()).collect()
    }

    /// The server's UCR runtime, when UCR is enabled (ablation hooks:
    /// eager-threshold sweeps, runtime statistics).
    pub fn ucr_runtime(&self) -> Option<UcrRuntime> {
        self.inner.ucr.borrow().clone()
    }

    /// The server's RoCE-side UCR runtime, when running.
    pub fn roce_runtime(&self) -> Option<UcrRuntime> {
        self.inner.roce.borrow().clone()
    }

    /// The workload observatory, when one was configured (bind its SLO
    /// trackers into a sampler, share its exemplar ring with a health
    /// monitor).
    pub fn observatory(&self) -> Option<Rc<WorkloadObservatory>> {
        self.inner.observatory.clone()
    }

    /// Stops accepting and serving. UCR endpoints fail over to their error
    /// path; socket clients see EOF on their next read.
    pub fn shutdown(&self) {
        self.inner.running.set(false);
        if let Some(rt) = self.inner.ucr.borrow_mut().take() {
            rt.shutdown();
        }
        if let Some(rt) = self.inner.roce.borrow_mut().take() {
            rt.shutdown();
        }
    }
}

/// Brings up one UCR runtime on `fabric`, registers the request handler,
/// and runs the accept loop (round-robin worker binding, SV-A).
fn start_ucr_listener(
    sim: &Sim,
    inner: &Rc<SrvInner>,
    fabric: &verbs::IbFabric,
    node: NodeId,
    port: u16,
    side: FabricSide,
) -> UcrRuntime {
    let rt = UcrRuntime::new(fabric, node);
    rt.register_handler(
        MSG_MC_REQ,
        ReqDispatch {
            srv: Rc::downgrade(inner),
        },
    );
    rt.register_handler(
        MSG_MC_DIR_REQ,
        DirDispatch {
            srv: Rc::downgrade(inner),
            side,
        },
    );
    // A taken port means another runtime already owns this fabric's
    // service port (a misconfigured double-start). Degrade gracefully:
    // the runtime stays up for outbound use but accepts nothing, and
    // clients of this fabric fail over to their error paths.
    let listener = match rt.listen(port) {
        Ok(l) => l,
        Err(_) => return rt,
    };
    let weak = Rc::downgrade(inner);
    sim.spawn(async move {
        while let Ok(ep) = listener.accept().await {
            let Some(srv) = weak.upgrade() else { break };
            if !srv.running.get() {
                break;
            }
            srv.stats.connections.set(srv.stats.connections.get() + 1);
            srv.assign_ep(ep.id());
        }
    });
    rt
}

impl SrvInner {
    fn next_worker(&self) -> usize {
        let w = self.next_worker.get();
        self.next_worker.set((w + 1) % self.workers.len());
        w
    }

    fn assign_ep(&self, ep_id: u64) {
        let w = self.next_worker();
        self.ep_workers.borrow_mut().insert(ep_id, w);
    }

    fn worker_for_ep(&self, ep_id: u64) -> usize {
        if let Some(w) = self.ep_workers.borrow().get(&ep_id) {
            return *w;
        }
        // Endpoint arrived before (or without) the accept bookkeeping:
        // assign now.
        let w = self.next_worker();
        self.ep_workers.borrow_mut().insert(ep_id, w);
        w
    }

    /// Shard-affine worker binding: a shard's requests always land on the
    /// same worker, so its lock only sees cross-worker contention when
    /// shards outnumber workers (or sockets race the UCR path).
    fn worker_for_shard(&self, shard: usize) -> usize {
        shard % self.workers.len()
    }

    /// Books one request read off a socket stream (ASCII or binary) and
    /// queues it for the connection's worker.
    fn queue_stream_request(&self, widx: usize, item: WorkItem) {
        self.stats
            .sock_requests
            .set(self.stats.sock_requests.get() + 1);
        // Detail-mode dispatch mark: no request id on the stream wire, so
        // op 0 means "no wire id" — the profiler attributes it by the
        // single open client op (single-client attribution runs).
        self.tracer.instant_detail(
            Layer::Core,
            "dispatch",
            self.node,
            Track::Main,
            0,
            0,
            self.sim.now(),
        );
        let _ = self.workers[widx].send(item);
    }

    /// Fresh request id for an id-less wire's request; never zero.
    fn next_sock_op(&self) -> u64 {
        let op = self.sock_op.get();
        self.sock_op.set(op + 1);
        op
    }

    fn now_secs(&self) -> u32 {
        BASE_UNIX_TIME + self.sim.now().as_secs_f64() as u32
    }

    /// Worker-thread service charge for one request.
    fn service_cost(&self, keys: usize) -> SimDuration {
        self.worker_fixed + self.hash_lookup * keys.max(1) as u64
    }

    /// The service-time histogram for `op`, created on first use.
    fn op_histogram(&self, op: McOp) -> Rc<Histogram> {
        self.op_hist
            .borrow_mut()
            .entry(op.label())
            .or_insert_with(|| Rc::new(Histogram::new()))
            .clone()
    }

    /// Publishes storage-engine occupancy into the cluster gauges:
    /// store-level item/byte counts plus per-slab-class used/free chunks,
    /// occupancy ratio, and eviction totals. Gauge watermarks give the
    /// high-water occupancy for free. Pure host-side accounting — costs
    /// no virtual time.
    fn publish_store_gauges(&self, store: &SegmentedStore) {
        self.items_gauge.set(store.curr_items() as f64);
        self.bytes_gauge.set(store.bytes_stored() as f64);
        let evictions = store.class_evictions();
        let mut gauges = self.slab_gauges.borrow_mut();
        for c in 0..store.class_count() {
            let st = store.class_stats(mcstore::ClassId(c as u8));
            let evicted = evictions.get(c).copied().unwrap_or(0);
            if st.pages == 0 && evicted == 0 {
                continue; // class never touched: keep the registry lean
            }
            let g = gauges.entry(c).or_insert_with(|| {
                let prefix = format!("mc.node{}.slab.class{}", self.node.0, c);
                ClassGauges {
                    used: self.metrics.gauge(&format!("{prefix}.used_chunks")),
                    free: self.metrics.gauge(&format!("{prefix}.free_chunks")),
                    occupancy: self.metrics.gauge(&format!("{prefix}.occupancy")),
                    evictions: self.metrics.gauge(&format!("{prefix}.evictions")),
                }
            });
            g.used.set(st.used as f64);
            g.free.set(st.free as f64);
            let chunks = st.used + st.free;
            g.occupancy.set(if chunks == 0 {
                0.0
            } else {
                st.used as f64 / chunks as f64
            });
            g.evictions.set(evicted as f64);
        }
    }

    /// Propagates store mutations to the bypass mirrors: drains the slab
    /// events the just-finished operation emitted and applies them to
    /// every fabric's mirror pages. Called synchronously after each
    /// store-touching request (no await between the mutation and the
    /// drain), so a client's RDMA read can never observe a mirror that
    /// lags the store across a scheduling point. No-op until the first
    /// directory request turns event tracking on.
    fn sync_mirrors(&self) {
        if !self.bypass_on.get() {
            return;
        }
        let batches = self.store.borrow_mut().take_slab_events();
        if batches.is_empty() {
            return;
        }
        let store = self.store.borrow();
        for (seg, events) in &batches {
            for dir in &self.mirrors {
                dir.apply(store.segment(*seg), *seg, events);
            }
        }
    }

    /// Brings every live gauge up to date immediately before a metrics
    /// export (`stats prom`): store occupancy plus the UCR runtime gauges
    /// that are otherwise refreshed on progress-engine wakes.
    fn refresh_observability_gauges(&self, store: &SegmentedStore) {
        self.publish_store_gauges(store);
        if let Some(rt) = self.ucr.borrow().as_ref() {
            rt.publish_gauges();
        }
        if let Some(rt) = self.roce.borrow().as_ref() {
            rt.publish_gauges();
        }
        if let Some(obs) = self.observatory.as_ref() {
            obs.refresh_gauges();
        }
    }

    /// `stats reset` (memcached parity): zeroes every counter and
    /// histogram — server request counters, storage-engine statistics,
    /// per-op service histograms, UCR runtime counters on both fabrics,
    /// and the cluster registry's counters/histograms — while preserving
    /// gauges and their watermarks (levels describe *current* state; a
    /// reset must not forge them).
    fn reset_all_stats(&self, store: &mut SegmentedStore) {
        self.stats.ucr_requests.set(0);
        self.stats.sock_requests.set(0);
        store.reset_stats();
        for h in self.op_hist.borrow().values() {
            h.reset();
        }
        if let Some(rt) = self.ucr.borrow().as_ref() {
            rt.stats().reset();
        }
        if let Some(rt) = self.roce.borrow().as_ref() {
            rt.stats().reset();
        }
        if let Some(obs) = self.observatory.as_ref() {
            obs.reset();
        }
        self.metrics.reset_counters_and_histograms();
    }
}

/// The `stats prom` sub-report: the cluster's Prometheus exposition,
/// carried over the stats plumbing as `(first-token, rest-of-line)`
/// pairs. Each exposition line has exactly one space after its first
/// token (`#` for comment lines, the series name otherwise), so clients
/// reconstruct the text losslessly by rejoining `"{k} {v}"`.
fn prom_stat_lines(srv: &SrvInner, store: &SegmentedStore) -> Vec<(String, String)> {
    srv.refresh_observability_gauges(store);
    let text = match srv.observatory.as_ref() {
        Some(obs) => {
            simnet::timeseries::prometheus_text_with_exemplars(&srv.metrics, &obs.ring().snapshot())
        }
        None => simnet::timeseries::prometheus_text(&srv.metrics),
    };
    text.lines()
        .map(|l| {
            let mut it = l.splitn(2, ' ');
            (
                it.next().unwrap_or_default().to_string(),
                it.next().unwrap_or_default().to_string(),
            )
        })
        .collect()
}

/// The `stats trace` sub-report: per-layer event counts plus the state of
/// the flight recorder (paper-independent observability surface).
fn trace_stat_lines(srv: &SrvInner) -> Vec<(String, String)> {
    let t = &srv.tracer;
    let mut lines: Vec<(String, String)> = Layer::ALL
        .iter()
        .map(|l| {
            (
                format!("trace.events.{}", l.label()),
                t.layer_count(*l).to_string(),
            )
        })
        .collect();
    lines.push(("trace.events.total".into(), t.total_events().to_string()));
    lines.push(("trace.flight.len".into(), t.flight_len().to_string()));
    lines.push((
        "trace.flight.dropped".into(),
        t.flight_dropped().to_string(),
    ));
    lines.push(("trace.faults".into(), t.fault_count().to_string()));
    lines
}

async fn worker_loop(srv: Weak<SrvInner>, rx: Receiver<WorkItem>, widx: u32) {
    // Per-worker queue instruments: the gauge holds the number of ready
    // requests each wake found (the batch it drained); the counters give
    // mean batch size over the run. Metrics writes cost no virtual time.
    let (depth_gauge, wakes, batched) = match srv.upgrade() {
        Some(inner) => {
            let prefix = format!("mc.node{}.worker{}", inner.node.0, widx);
            (
                inner.metrics.gauge(&format!("{prefix}.queue_depth")),
                inner.metrics.counter(&format!("{prefix}.wakes")),
                inner.metrics.counter(&format!("{prefix}.batch_items")),
            )
        }
        None => return,
    };
    loop {
        let Ok(first) = rx.recv().await else { break };
        // Drain everything already queued so one wake services all ready
        // requests. `try_recv` pops without suspending and `recv` on a
        // non-empty queue completes on its first poll, so the service
        // order and virtual-time schedule are identical to the classic
        // item-at-a-time loop — the batch is pure accounting.
        let mut batch = vec![first];
        while let Some(item) = rx.try_recv() {
            batch.push(item);
        }
        depth_gauge.set(batch.len() as f64);
        wakes.inc();
        batched.add(batch.len() as u64);
        for item in batch {
            let Some(inner) = srv.upgrade() else { return };
            if !inner.running.get() {
                return;
            }
            match item {
                WorkItem::Ucr { ep, req, data } => serve_ucr(&inner, ep, req, data, widx).await,
                WorkItem::UcrMgetPart {
                    ep,
                    merge,
                    part,
                    idxs,
                } => serve_ucr_mget_part(&inner, ep, merge, part, idxs, widx).await,
                WorkItem::Sock { sock, cmd } => {
                    if let Some(wire) = serve_ascii(&inner, cmd, widx).await {
                        let _ = sock.write_all(&wire).await;
                    }
                }
                WorkItem::SockBin { sock, frame } => {
                    if let Some(wire) = serve_bin(&inner, frame, widx).await {
                        let _ = sock.write_all(&wire).await;
                    }
                }
                WorkItem::SockUdp {
                    sock,
                    src,
                    request_id,
                    cmd,
                } => {
                    if let Some(wire) = serve_ascii(&inner, cmd, widx).await {
                        for datagram in udp_fragment(request_id, &wire) {
                            let _ = sock.send_to(src, &datagram).await;
                        }
                    }
                }
            }
        }
        // Batch drained: refresh the storage-occupancy gauges so a
        // concurrently running time-series sampler sees live slab state.
        if let Some(inner) = srv.upgrade() {
            if let Ok(store) = inner.store.try_borrow() {
                inner.publish_store_gauges(&store);
            }
        }
    }
}

// ---------------------------------------------------------------------
// UCR edge: the AM request header is already the executor's request
// ---------------------------------------------------------------------

async fn serve_ucr(srv: &Rc<SrvInner>, ep: Endpoint, req: ReqHeader, data: Vec<u8>, widx: u32) {
    let (reply, _guards) = srv.execute(&req, &data, widx, true).await;
    let (hdr, payload) = reply.into_am(&req.keys);
    post_reply(&ep, req.ctr_id, hdr, payload);
}

/// Serves one shard's slice of a split `Mget` (the [`StoreModel::Sharded`]
/// scatter/gather path). Each part is executed on its own — the parts run
/// on different workers, genuinely in parallel — and the last part to
/// finish encodes the merged response in original key order and posts the
/// single `MSG_MC_RESP`.
async fn serve_ucr_mget_part(
    srv: &Rc<SrvInner>,
    ep: Endpoint,
    merge: Rc<RefCell<MgetMerge>>,
    part: ReqHeader,
    idxs: Vec<usize>,
    widx: u32,
) {
    let (reply, _guards) = srv.execute(&part, &[], widx, true).await;
    let mut m = merge.borrow_mut();
    for (j, v) in reply.hits {
        m.slots[idxs[j]] = Some(v);
    }
    m.remaining -= 1;
    if m.remaining > 0 {
        return;
    }
    let mut merged = Reply::new(m.req.req_id, RespStatus::Hit);
    merged.hits = m
        .slots
        .iter_mut()
        .enumerate()
        .filter_map(|(i, slot)| Some((i, slot.take()?)))
        .collect();
    let (hdr, payload) = merged.into_am(&m.req.keys);
    post_reply(&ep, m.req.ctr_id, hdr, payload);
}

/// AM 2: the response, targeting the counter named in AM 1 (§V-B).
fn post_reply(ep: &Endpoint, target_ctr: u64, hdr: RespHeader, payload: Vec<u8>) {
    ep.post_message(
        MSG_MC_RESP,
        hdr.encode(),
        payload,
        SendOptions {
            target_ctr,
            ..Default::default()
        },
    );
}

fn render_stats(srv: &SrvInner, store: &SegmentedStore) -> String {
    let st = store.stats();
    let mut out = String::new();
    let mut put = |k: &str, v: String| {
        out.push_str(k);
        out.push(' ');
        out.push_str(&v);
        out.push('\n');
    };
    put("version", SERVER_VERSION.to_string());
    put("curr_items", store.curr_items().to_string());
    put("bytes", store.bytes_stored().to_string());
    put("get_hits", st.get_hits.to_string());
    put("get_misses", st.get_misses.to_string());
    put("cmd_set", st.sets.to_string());
    put("evictions", st.evictions.to_string());
    put("reclaimed", st.reclaimed.to_string());
    put("cas_hits", st.cas_hits.to_string());
    put("cas_badval", st.cas_badval.to_string());
    put("total_items", st.total_items.to_string());
    put("ucr_requests", srv.stats.ucr_requests.get().to_string());
    put("sock_requests", srv.stats.sock_requests.get().to_string());
    put("curr_connections", srv.stats.connections.get().to_string());
    // UCR runtime counters (eager/rendezvous traffic, drops, faults).
    if let Some(rt) = srv.ucr.borrow().as_ref() {
        for (k, v) in rt.stats().report() {
            put(&k, v);
        }
    }
    // Per-operation worker service-time summaries.
    {
        let hists = srv.op_hist.borrow();
        let mut labels: Vec<&&str> = hists.keys().collect();
        labels.sort_unstable();
        for label in labels {
            let h = &hists[*label];
            let s = h.summary();
            put(&format!("op.{label}.count"), s.count.to_string());
            put(
                &format!("op.{label}.service_us.mean"),
                format!("{:.3}", s.mean.as_micros_f64()),
            );
            put(
                &format!("op.{label}.service_us.p50"),
                format!("{:.3}", s.p50.as_micros_f64()),
            );
            put(
                &format!("op.{label}.service_us.p99"),
                format!("{:.3}", s.p99.as_micros_f64()),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------
// Sockets edges: ASCII (TCP, UDP) and binary codecs around the executor
// ---------------------------------------------------------------------

/// Per-connection event task: reads, frames requests, and hands them to
/// the connection's worker (the libevent notification of the original
/// architecture). The first byte picks the connection's protocol: the
/// binary request magic cannot start an ASCII command.
async fn conn_reader(srv: Weak<SrvInner>, sock: Rc<Socket>, widx: usize) {
    let mut reader = FrameReader::default();
    let sniff = |b: &[u8]| Ok(b.first().map(|&m| (m == MAGIC_REQUEST, 0)));
    let Ok(binary) = reader.next(&sock, sniff).await else {
        return;
    };
    loop {
        // `None` is a quit.
        let next = if binary {
            reader.next(&sock, BinFrame::parse).await.map(|frame| {
                let sock = sock.clone();
                (frame.opcode != BinOpcode::Quit).then_some(WorkItem::SockBin { sock, frame })
            })
        } else {
            reader.next(&sock, parse_command).await.map(|cmd| {
                let sock = sock.clone();
                (!matches!(cmd, Command::Quit)).then_some(WorkItem::Sock { sock, cmd })
            })
        };
        let item = match next {
            Ok(item) => item,
            Err(ReadError::Closed) => return,
            Err(ReadError::Malformed) => {
                // Protocol error: drop the connection, as memcached does;
                // an ASCII client is answered `ERROR` first.
                if !binary {
                    let _ = sock.write_all(&encode_response(&Response::Error)).await;
                }
                sock.close();
                return;
            }
        };
        let Some(inner) = srv.upgrade() else { return };
        if !inner.running.get() {
            sock.close();
            return;
        }
        let Some(item) = item else {
            sock.close();
            return;
        };
        inner.queue_stream_request(widx, item);
    }
}

/// The ASCII edge, shared by TCP and UDP: decode, execute, encode.
/// `None` when the command wants no reply. The store locks drop on return,
/// before the caller writes.
async fn serve_ascii(srv: &Rc<SrvInner>, cmd: Command, widx: u32) -> Option<Vec<u8>> {
    let ascii = ascii_request(cmd, srv.next_sock_op())?;
    let (reply, _guards) = srv.execute(&ascii.req, &ascii.data, widx, false).await;
    let resp = ascii_response(&ascii.req, ascii.with_cas, reply);
    (!ascii.noreply).then(|| encode_response(&resp))
}

/// The binary edge: decode, execute, encode. `None` for a quiet get's
/// miss, which stays silent. The store locks drop on return, before the
/// caller writes.
async fn serve_bin(srv: &Rc<SrvInner>, mut frame: BinFrame, widx: u32) -> Option<Vec<u8>> {
    let (frames, _guards) = match bin_request(&mut frame, srv.next_sock_op()) {
        // Noop and malformed frames touch no store state: answered in queue
        // order, with no service charge.
        Err(status) => (vec![BinFrame::response(&frame, status)], Vec::new()),
        Ok(bin) => {
            let (mut reply, mut guards) = srv.execute(&bin.req, &bin.data, widx, false).await;
            if let (RespStatus::NotFound, Some((initial, exptime))) = (reply.hdr.status, bin.create)
            {
                // Incr/decr of a missing counter creates it: a follow-up add
                // of the initial value.
                guards.clear();
                let mut add = ReqHeader::new(McOp::Add, bin.req.req_id, 0, bin.req.keys[0].clone());
                add.exptime = exptime;
                let value = initial.to_string().into_bytes();
                (reply, guards) = srv.execute(&add, &value, widx, false).await;
                if reply.hdr.status == RespStatus::Stored {
                    reply.hdr = RespHeader::new(add.req_id, RespStatus::Number);
                    reply.hdr.number = initial;
                }
            }
            (bin_response(&frame, &bin.req, reply), guards)
        }
    };
    (!frames.is_empty()).then(|| frames.iter().flat_map(BinFrame::encode).collect())
}

/// UDP receive loop: one task per (stack, port). Requests must fit a
/// single datagram (as in real memcached); responses are fragmented with
/// the 8-byte UDP frame header. Connectionless, so requests round-robin
/// over workers individually.
async fn udp_receiver(srv: Weak<SrvInner>, sock: Rc<DgramSocket>) {
    loop {
        let Ok((src, datagram)) = sock.recv_from().await else {
            return;
        };
        let Some(inner) = srv.upgrade() else { return };
        if !inner.running.get() {
            return;
        }
        let Ok((frame, payload)) = UdpFrame::decode(&datagram) else {
            continue;
        };
        if frame.total != 1 {
            continue; // multi-datagram requests are not supported
        }
        let Ok(Some((cmd, _))) = parse_command(payload) else {
            continue;
        };
        if matches!(cmd, Command::Quit) {
            continue; // meaningless without a connection
        }
        inner
            .stats
            .sock_requests
            .set(inner.stats.sock_requests.get() + 1);
        let widx = inner.next_worker();
        let _ = inner.workers[widx].send(WorkItem::SockUdp {
            sock: sock.clone(),
            src,
            request_id: frame.request_id,
            cmd,
        });
    }
}
