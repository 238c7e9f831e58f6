//! The transport-neutral request executor.
//!
//! Every wire decodes its request into the vocabulary the UCR wire
//! already speaks — an [`McOp`] with its operands in a [`ReqHeader`], plus
//! the value bytes — and hands it to [`SrvInner::execute`]. The executor
//! does each per-request job exactly once, whatever the wire:
//!
//! * charges service time under the [`StoreModel`] lock plan;
//! * runs the verb against the [`SegmentedStore`](mcstore::SegmentedStore)
//!   (the one place each store mutator is called);
//! * feeds the observatory, the per-op histogram, the bypass mirrors and
//!   the `worker_service` trace bracket.
//!
//! It answers with a [`Reply`]: a [`RespHeader`] plus the value or text
//! and the multi-get hits. Each wire's encoder turns that into its own
//! response — AM 2 ([`Reply::into_am`]), ASCII lines or binary frames
//! (`crate::codec`).

use std::collections::BTreeMap;
use std::rc::Rc;

use mcstore::{NumericError, SegmentedStore, SetOutcome, Value};
use simnet::trace::{Layer, Track};
use simnet::vlock::VLockGuard;
use simnet::Tracer;

use super::{
    prom_stat_lines, render_stats, trace_stat_lines, SrvInner, StoreModel, SERVER_VERSION,
};
use crate::am_wire::{
    encode_mget_entry, mget_entry_len, stats_text, McOp, ReqHeader, RespHeader, RespStatus,
};

/// The executor's answer to one request, before any wire encodes it.
pub(crate) struct Reply {
    /// Outcome plus the get hit's flags/cas, the fresh CAS after a store,
    /// and the incr/decr result. `nvalues` is left for the AM encoder.
    pub hdr: RespHeader,
    /// The get hit's value, the version string, or the stats text.
    pub data: Vec<u8>,
    /// Multi-get hits in request key order, each tagged with its key's
    /// index in the request.
    pub hits: Vec<(usize, Value)>,
}

impl Reply {
    /// An empty reply to `req_id` with `status`.
    pub fn new(req_id: u64, status: RespStatus) -> Reply {
        Reply {
            hdr: RespHeader::new(req_id, status),
            data: Vec::new(),
            hits: Vec::new(),
        }
    }

    /// Size of the AM payload this reply encodes to.
    fn payload_len(&self, keys: &[Vec<u8>]) -> usize {
        if self.hits.is_empty() {
            return self.data.len();
        }
        self.hits
            .iter()
            .map(|(i, v)| mget_entry_len(keys[*i].len(), v.data.len()))
            .sum()
    }

    /// The UCR encoder: the AM 2 header and payload. Multi-get hits are
    /// packed as entries keyed from the request's `keys`.
    pub fn into_am(mut self, keys: &[Vec<u8>]) -> (RespHeader, Vec<u8>) {
        if self.hits.is_empty() {
            return (self.hdr, self.data);
        }
        let mut payload = Vec::new();
        for (i, v) in &self.hits {
            encode_mget_entry(&mut payload, &keys[*i], v.flags, v.cas, &v.data);
        }
        self.hdr.nvalues = self.hits.len() as u16;
        (self.hdr, payload)
    }
}

fn outcome_status(o: SetOutcome) -> RespStatus {
    match o {
        SetOutcome::Stored => RespStatus::Stored,
        SetOutcome::NotStored => RespStatus::NotStored,
        SetOutcome::Exists => RespStatus::Exists,
        SetOutcome::NotFound => RespStatus::NotFound,
        SetOutcome::TooLarge => RespStatus::TooLarge,
        SetOutcome::OutOfMemory => RespStatus::OutOfMemory,
    }
}

fn found(hit: bool) -> RespStatus {
    if hit {
        RespStatus::Ok
    } else {
        RespStatus::NotFound
    }
}

impl SrvInner {
    /// Executes one decoded request on worker `widx`.
    ///
    /// `wire_id` says whether the wire carried `req.req_id` (UCR): the
    /// service bracket is then keyed by it and always traced. Id-less
    /// wires (socket streams, UDP) pass a server-local op id; their bracket
    /// is traced in detail mode only, and the profiler correlates it to the
    /// single open client op.
    ///
    /// Returns the reply and the store locks still held. The wire edge
    /// drops them once the reply is encoded, before its first await.
    pub(super) async fn execute(
        self: &Rc<Self>,
        req: &ReqHeader,
        data: &[u8],
        widx: u32,
        wire_id: bool,
    ) -> (Reply, Vec<VLockGuard>) {
        let start = self.sim.now();
        self.service_event(false, wire_id, widx, req.req_id, data.len());
        let mut reply = Reply::new(req.req_id, RespStatus::Ok);
        let nkeys = req.keys.len();
        let track = Track::Worker(widx);
        let guards = if self.model == StoreModel::Idealized {
            // The whole service time is one uncontended charge: the exact
            // schedule every pre-`StoreModel` experiment ran under.
            self.sim.sleep(self.service_cost(nkeys)).await;
            self.run(req, data, 0..nkeys, &mut reply);
            Vec::new()
        } else {
            // Locked models split it: the fixed dispatch/parse portion runs
            // lock-free, then `lock_shards` serializes the hash/item portion.
            self.sim.sleep(self.worker_fixed).await;
            let shard = |k: &[u8]| self.router.index(k);
            let first = shard(req.keys.first().map_or(&[][..], Vec::as_slice));
            if matches!(req.op, McOp::FlushAll | McOp::Stats) {
                // Flush and stats touch every segment.
                let all = 0..self.router.count();
                let guards = self.lock_shards(all, nkeys, req.req_id, track).await;
                self.run(req, data, 0..nkeys, &mut reply);
                guards
            } else if req.op != McOp::Mget || req.keys.iter().skip(1).all(|k| shard(k) == first) {
                let guards = self.lock_shards([first], nkeys, req.req_id, track).await;
                self.run(req, data, 0..nkeys, &mut reply);
                guards
            } else {
                // A multi-get spanning shards visits them group by group,
                // holding one shard's lock at a time.
                let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
                for (i, k) in req.keys.iter().enumerate() {
                    groups.entry(shard(k)).or_default().push(i);
                }
                let mut guards = Vec::new();
                for (s, idxs) in groups {
                    guards.clear();
                    guards = self.lock_shards([s], idxs.len(), req.req_id, track).await;
                    self.run(req, data, idxs, &mut reply);
                }
                reply.hits.sort_unstable_by_key(|(i, _)| *i);
                guards
            }
        };
        let end = self.sim.now();
        let service = end.saturating_since(start);
        self.op_histogram(req.op).record(service);
        let bytes = reply.payload_len(&req.keys);
        if let Some(obs) = self.observatory.as_ref() {
            obs.observe_service(
                req.op.label(),
                req.keys.first().map_or(&[][..], Vec::as_slice),
                data.len().max(bytes) as u64,
                service,
                req.req_id,
                end,
            );
        }
        self.service_event(true, wire_id, widx, req.req_id, bytes);
        (reply, guards)
    }

    /// Runs `req`'s verb against the store for the keys at `idxs` (only a
    /// multi-get looks past its first key), feeds the observatory, and
    /// syncs the bypass mirrors.
    fn run(
        &self,
        req: &ReqHeader,
        data: &[u8],
        idxs: impl IntoIterator<Item = usize>,
        reply: &mut Reply,
    ) {
        let now = self.now_secs();
        let key = req.keys.first().map_or(&[][..], Vec::as_slice);
        let obs = self.observatory.as_ref();
        let mut store = self.store.borrow_mut();
        let status = match req.op {
            McOp::Get => match store.get(key, now) {
                Some(v) => {
                    reply.hdr.flags = v.flags;
                    reply.hdr.cas = v.cas;
                    reply.data = v.data;
                    RespStatus::Hit
                }
                None => RespStatus::Miss,
            },
            McOp::Mget => {
                for i in idxs {
                    let k = &req.keys[i];
                    if let Some(v) = store.get(k, now) {
                        reply.hits.push((i, v));
                    }
                    if let Some(obs) = obs {
                        obs.observe_key(k, false, None);
                    }
                }
                RespStatus::Hit
            }
            McOp::Set | McOp::Add | McOp::Replace | McOp::Append | McOp::Prepend | McOp::Cas => {
                let outcome = match req.op {
                    McOp::Set => store.set(key, data, req.flags, req.exptime, now),
                    McOp::Add => store.add(key, data, req.flags, req.exptime, now),
                    McOp::Replace => store.replace(key, data, req.flags, req.exptime, now),
                    McOp::Append => store.append(key, data, now),
                    McOp::Prepend => store.prepend(key, data, now),
                    _ => store.cas(key, data, req.flags, req.exptime, req.cas, now),
                };
                if outcome == SetOutcome::Stored {
                    // The fresh CAS, read without stats or LRU side effects.
                    reply.hdr.cas = store.locate(key, now).map_or(0, |(_, item)| item.cas);
                }
                outcome_status(outcome)
            }
            McOp::Delete => found(store.delete(key, now)),
            McOp::Incr | McOp::Decr => {
                let r = if req.op == McOp::Incr {
                    store.incr(key, req.delta, now)
                } else {
                    store.decr(key, req.delta, now)
                };
                match r {
                    Ok(n) => {
                        reply.hdr.number = n;
                        RespStatus::Number
                    }
                    Err(NumericError::NotFound) => RespStatus::NotFound,
                    Err(NumericError::NotNumeric) => RespStatus::NotNumeric,
                }
            }
            McOp::Touch => found(store.touch(key, req.exptime, now)),
            McOp::FlushAll => {
                store.flush_all(now + req.exptime);
                RespStatus::Ok
            }
            McOp::Version => {
                reply.data = SERVER_VERSION.as_bytes().to_vec();
                RespStatus::Ok
            }
            McOp::Stats => {
                reply.data = self.stats_report(&mut store, key).into_bytes();
                RespStatus::Ok
            }
        };
        reply.hdr.status = status;
        if let Some(obs) = obs {
            match req.op {
                McOp::Get => {
                    let class = (status == RespStatus::Hit)
                        .then(|| store.class_of(key.len(), reply.data.len()))
                        .flatten();
                    obs.observe_key(key, false, class);
                }
                McOp::Set
                | McOp::Add
                | McOp::Replace
                | McOp::Append
                | McOp::Prepend
                | McOp::Cas => {
                    obs.observe_key(key, true, store.class_of(key.len(), data.len()));
                }
                McOp::Delete | McOp::Incr | McOp::Decr | McOp::Touch => {
                    obs.observe_key(key, true, None);
                }
                _ => {}
            }
        }
        drop(store);
        self.sync_mirrors();
    }

    /// The single `stats` dispatch: `which` names the sub-report (empty =
    /// the general report); an unknown name answers with nothing. The
    /// observatory reports (hot keys, SLO burn, tail exemplars) and the
    /// profiler's critical-path report are opt-in: without one attached
    /// they answer with a single `observatory off` / `profiler off` line.
    fn stats_report(&self, store: &mut SegmentedStore, which: &[u8]) -> String {
        let now = self.sim.now();
        let off = |what: &str| vec![(what.to_string(), "off".to_string())];
        let lines = match (which, self.observatory.as_ref()) {
            (b"", _) => return render_stats(self, store),
            (b"slabs", _) => store.slab_stat_lines(),
            (b"items", _) => store.item_stat_lines(),
            (b"trace", _) => trace_stat_lines(self),
            (b"prom", _) => prom_stat_lines(self, store),
            (b"hot", Some(obs)) => obs.hot_stat_lines(now),
            (b"slo", Some(obs)) => obs.slo_stat_lines(now),
            (b"exemplars", Some(obs)) => obs.exemplar_stat_lines(),
            (b"hot" | b"slo" | b"exemplars", None) => off("observatory"),
            (b"profile", _) => match self.tracer.profiler() {
                Some(p) => p.stat_lines(),
                None => off("profiler"),
            },
            (b"reset", _) => {
                self.reset_all_stats(store);
                vec![("reset".to_string(), "ok".to_string())]
            }
            _ => Vec::new(),
        };
        stats_text(&lines)
    }

    /// Acquires the store locks a request touching `shards` needs, in
    /// ascending order (the deadlock-free total order), then charges the
    /// per-key hash/item cost *inside* the critical section — that is
    /// the serialized portion of upstream memcached's `cache_lock`.
    /// Returns no guards under `Idealized` (callers charge the combined
    /// [`Self::service_cost`] instead).
    async fn lock_shards(
        self: &Rc<Self>,
        shards: impl IntoIterator<Item = usize>,
        keys: usize,
        op: u64,
        track: Track,
    ) -> Vec<VLockGuard> {
        let mut guards = Vec::new();
        match self.model {
            StoreModel::Idealized => return guards,
            StoreModel::GlobalLock => guards.push(self.locks[0].lock(op, track).await),
            StoreModel::Sharded(_) => {
                let set: std::collections::BTreeSet<usize> = shards.into_iter().collect();
                for s in set {
                    guards.push(self.locks[s].lock(op, track).await);
                }
            }
        }
        self.sim.sleep(self.hash_lookup * keys.max(1) as u64).await;
        guards
    }

    /// Opens (`end == false`) or closes the `worker_service` trace bracket.
    fn service_event(&self, end: bool, wire_id: bool, widx: u32, id: u64, bytes: usize) {
        let emit = match (end, wire_id) {
            (false, true) => Tracer::begin,
            (false, false) => Tracer::begin_detail,
            (true, true) => Tracer::end,
            (true, false) => Tracer::end_detail,
        };
        emit(
            &self.tracer,
            Layer::Core,
            "worker_service",
            self.node,
            Track::Worker(widx),
            id,
            bytes as u64,
            self.sim.now(),
        );
    }
}
