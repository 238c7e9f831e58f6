//! Edge codecs between the sockets protocols and the AM request/reply.
//!
//! The server's executor and the client's verbs both speak the AM types
//! of the UCR wire: a [`ReqHeader`] plus value bytes for a request, a
//! [`RespHeader`] plus payload for a reply. UCR needs no codec beyond
//! `am_wire`; ASCII (over TCP and UDP) and the binary protocol each get
//! the four translations here:
//!
//! | protocol | server decode | server encode | client encode | client decode |
//! |---|---|---|---|---|
//! | ASCII | [`ascii_request`] | [`ascii_response`] | [`ascii_command`] | [`ascii_reply`] |
//! | binary | [`bin_request`] | [`bin_response`] | [`request_frames`] | [`frames_reply`] |
//!
//! A client-side reply uses the AM payload layout: a multi-get's hits are
//! packed as mget entries, stats as `name value` lines.

use mcproto::{
    arith_extras, parse_arith_extras, parse_store_extras, store_extras, BinFrame, BinOpcode,
    BinStatus, Command, GetValue, Response, StoreVerb,
};

use crate::am_wire::{
    encode_mget_entry, stats_pairs, stats_text, McOp, ReqHeader, RespHeader, RespStatus,
};
use crate::client::McError;
use crate::server::Reply;

/// Message a non-numeric incr/decr gets over ASCII.
const NON_NUMERIC: &str = "cannot increment or decrement non-numeric value";

fn store_op(verb: StoreVerb) -> McOp {
    match verb {
        StoreVerb::Set => McOp::Set,
        StoreVerb::Add => McOp::Add,
        StoreVerb::Replace => McOp::Replace,
        StoreVerb::Append => McOp::Append,
        StoreVerb::Prepend => McOp::Prepend,
    }
}

/// A one-key `get` is a plain get; more keys make a multi-get.
fn get_op(keys: &[Vec<u8>]) -> McOp {
    if keys.len() == 1 {
        McOp::Get
    } else {
        McOp::Mget
    }
}

/// The key of a one-key request.
fn only_key(mut keys: Vec<Vec<u8>>) -> Vec<u8> {
    keys.pop().unwrap_or_default()
}

// ---------------------------------------------------------------------
// ASCII (TCP and UDP)
// ---------------------------------------------------------------------

/// An ASCII command decoded for the executor, plus the two things its
/// encoder needs back: whether `gets` asked for CAS tokens, and whether
/// the client wants no reply.
pub(crate) struct AsciiRequest {
    pub req: ReqHeader,
    pub data: Vec<u8>,
    pub with_cas: bool,
    pub noreply: bool,
}

/// Server decode: one ASCII command into an executor request keyed by the
/// server-local op `id`. `quit` has no request (the reader handles it).
pub(crate) fn ascii_request(cmd: Command, id: u64) -> Option<AsciiRequest> {
    let mut out = AsciiRequest {
        req: ReqHeader::with_keys(McOp::Version, id, 0, Vec::new()),
        data: Vec::new(),
        with_cas: false,
        noreply: false,
    };
    let r = &mut out.req;
    match cmd {
        Command::Store {
            verb,
            key,
            flags,
            exptime,
            data,
            noreply,
        } => {
            (r.op, r.keys, r.flags, r.exptime) = (store_op(verb), vec![key], flags, exptime);
            (out.data, out.noreply) = (data, noreply);
        }
        Command::Cas {
            key,
            flags,
            exptime,
            cas,
            data,
            noreply,
        } => {
            (r.op, r.keys, r.flags, r.exptime) = (McOp::Cas, vec![key], flags, exptime);
            r.cas = cas;
            (out.data, out.noreply) = (data, noreply);
        }
        Command::Get { keys } => (r.op, r.keys) = (get_op(&keys), keys),
        Command::Gets { keys } => {
            (r.op, r.keys, out.with_cas) = (get_op(&keys), keys, true);
        }
        Command::Delete { key, noreply } => {
            (r.op, r.keys, out.noreply) = (McOp::Delete, vec![key], noreply);
        }
        Command::Incr {
            key,
            delta,
            noreply,
        } => (r.op, r.keys, r.delta, out.noreply) = (McOp::Incr, vec![key], delta, noreply),
        Command::Decr {
            key,
            delta,
            noreply,
        } => (r.op, r.keys, r.delta, out.noreply) = (McOp::Decr, vec![key], delta, noreply),
        Command::Touch {
            key,
            exptime,
            noreply,
        } => {
            (r.op, r.keys, r.exptime) = (McOp::Touch, vec![key], exptime);
            out.noreply = noreply;
        }
        Command::FlushAll { delay, noreply } => {
            (r.op, r.exptime) = (McOp::FlushAll, delay);
            out.noreply = noreply;
        }
        Command::Stats { arg } => (r.op, r.keys) = (McOp::Stats, vec![arg.unwrap_or_default()]),
        Command::Version => {}
        Command::Quit => return None,
    }
    Some(out)
}

/// Server encode: the executor's reply to `req` as an ASCII response.
pub(crate) fn ascii_response(req: &ReqHeader, with_cas: bool, reply: Reply) -> Response {
    let value = |key: &[u8], flags, cas, data| GetValue {
        key: key.to_vec(),
        flags,
        cas: with_cas.then_some(cas),
        data,
    };
    let hdr = reply.hdr;
    match hdr.status {
        RespStatus::Hit if req.op == McOp::Get => {
            Response::Values(vec![value(&req.keys[0], hdr.flags, hdr.cas, reply.data)])
        }
        RespStatus::Hit => Response::Values(
            reply
                .hits
                .into_iter()
                .map(|(i, v)| value(&req.keys[i], v.flags, v.cas, v.data))
                .collect(),
        ),
        RespStatus::Miss => Response::Values(Vec::new()),
        RespStatus::Stored => Response::Stored,
        RespStatus::NotStored => Response::NotStored,
        RespStatus::Exists => Response::Exists,
        RespStatus::NotFound => Response::NotFound,
        RespStatus::Number => Response::Number(hdr.number),
        RespStatus::TooLarge => Response::ServerError("object too large for cache".into()),
        RespStatus::OutOfMemory => Response::ServerError("out of memory storing object".into()),
        RespStatus::NotNumeric => Response::ClientError(NON_NUMERIC.into()),
        RespStatus::Ok => match req.op {
            McOp::Delete => Response::Deleted,
            McOp::Touch => Response::Touched,
            McOp::Version => Response::Version(String::from_utf8_lossy(&reply.data).into_owned()),
            McOp::Stats => Response::Stats(stats_pairs(&reply.data)),
            _ => Response::Ok,
        },
    }
}

/// Client encode: a request as the ASCII command that carries it. Gets
/// always ask for CAS tokens.
pub(crate) fn ascii_command(req: ReqHeader, data: Vec<u8>) -> Command {
    let ReqHeader {
        op,
        flags,
        exptime,
        cas,
        delta,
        keys,
        ..
    } = req;
    let noreply = false;
    match op {
        McOp::Get | McOp::Mget => Command::Gets { keys },
        McOp::Set | McOp::Add | McOp::Replace | McOp::Append | McOp::Prepend => Command::Store {
            verb: match op {
                McOp::Set => StoreVerb::Set,
                McOp::Add => StoreVerb::Add,
                McOp::Replace => StoreVerb::Replace,
                McOp::Append => StoreVerb::Append,
                _ => StoreVerb::Prepend,
            },
            key: only_key(keys),
            flags,
            exptime,
            data,
            noreply,
        },
        McOp::Cas => Command::Cas {
            key: only_key(keys),
            flags,
            exptime,
            cas,
            data,
            noreply,
        },
        McOp::Delete => Command::Delete {
            key: only_key(keys),
            noreply,
        },
        McOp::Incr => Command::Incr {
            key: only_key(keys),
            delta,
            noreply,
        },
        McOp::Decr => Command::Decr {
            key: only_key(keys),
            delta,
            noreply,
        },
        McOp::Touch => Command::Touch {
            key: only_key(keys),
            exptime,
            noreply,
        },
        McOp::FlushAll => Command::FlushAll {
            delay: exptime,
            noreply,
        },
        McOp::Version => Command::Version,
        McOp::Stats => {
            let arg = only_key(keys);
            Command::Stats {
                arg: (!arg.is_empty()).then_some(arg),
            }
        }
    }
}

/// Client decode: the ASCII response to an `op` request as an AM reply.
pub(crate) fn ascii_reply(op: McOp, resp: Response) -> Result<(RespHeader, Vec<u8>), McError> {
    let mut hdr = RespHeader::new(0, RespStatus::Ok);
    let mut data = Vec::new();
    hdr.status = match resp {
        Response::Values(mut vs) if op == McOp::Get => match vs.pop() {
            Some(v) => {
                (hdr.flags, hdr.cas, data) = (v.flags, v.cas.unwrap_or(0), v.data);
                RespStatus::Hit
            }
            None => RespStatus::Miss,
        },
        Response::Values(vs) if op == McOp::Mget => {
            for v in &vs {
                encode_mget_entry(&mut data, &v.key, v.flags, v.cas.unwrap_or(0), &v.data);
            }
            hdr.nvalues = vs.len() as u16;
            RespStatus::Hit
        }
        // A bare END (empty report) parses as an empty value list; the two
        // are indistinguishable on the wire.
        Response::Values(vs) if op == McOp::Stats && vs.is_empty() => RespStatus::Ok,
        Response::Stats(lines) => {
            data = stats_text(&lines).into_bytes();
            RespStatus::Ok
        }
        Response::Version(v) => {
            data = v.into_bytes();
            RespStatus::Ok
        }
        Response::Stored => RespStatus::Stored,
        Response::NotStored => RespStatus::NotStored,
        Response::Exists => RespStatus::Exists,
        Response::NotFound => RespStatus::NotFound,
        Response::Deleted | Response::Touched | Response::Ok => RespStatus::Ok,
        Response::Number(n) => {
            hdr.number = n;
            RespStatus::Number
        }
        Response::ServerError(m) if m.contains("too large") => RespStatus::TooLarge,
        Response::ServerError(_) => RespStatus::OutOfMemory,
        Response::ClientError(_) if matches!(op, McOp::Incr | McOp::Decr) => RespStatus::NotNumeric,
        _ => return Err(McError::Protocol),
    };
    Ok((hdr, data))
}

// ---------------------------------------------------------------------
// Binary protocol
// ---------------------------------------------------------------------

/// A binary frame decoded for the executor.
pub(crate) struct BinRequest {
    pub req: ReqHeader,
    pub data: Vec<u8>,
    /// Incr/decr of a missing counter: the initial value and expiry to
    /// create it with (the frame's exptime was not all-ones).
    pub create: Option<(u64, u32)>,
}

/// Server decode: one binary frame into an executor request keyed by the
/// server-local op `id`, taking its key and value. A frame with no
/// request behind it is answered with the returned status instead: `Ok`
/// for a Noop, `InvalidArgs` for malformed extras.
pub(crate) fn bin_request(frame: &mut BinFrame, id: u64) -> Result<BinRequest, BinStatus> {
    let mut req = ReqHeader::new(McOp::Get, id, 0, std::mem::take(&mut frame.key));
    let mut create = None;
    let extras = frame.extras.as_slice();
    let word = <[u8; 4]>::try_from(extras).map(u32::from_be_bytes);
    req.op = match frame.opcode {
        BinOpcode::Get | BinOpcode::GetK | BinOpcode::GetQ | BinOpcode::GetKQ => McOp::Get,
        BinOpcode::Set | BinOpcode::Add | BinOpcode::Replace => {
            (req.flags, req.exptime) = parse_store_extras(extras).ok_or(BinStatus::InvalidArgs)?;
            req.cas = frame.cas;
            match frame.opcode {
                _ if frame.cas != 0 => McOp::Cas,
                BinOpcode::Set => McOp::Set,
                BinOpcode::Add => McOp::Add,
                _ => McOp::Replace,
            }
        }
        BinOpcode::Append => McOp::Append,
        BinOpcode::Prepend => McOp::Prepend,
        BinOpcode::Delete => McOp::Delete,
        BinOpcode::Increment | BinOpcode::Decrement => {
            let (delta, initial, exptime) =
                parse_arith_extras(extras).ok_or(BinStatus::InvalidArgs)?;
            req.delta = delta;
            // Spec: create with the initial value unless exptime is
            // all-ones.
            create = (exptime != u32::MAX).then_some((initial, exptime));
            if frame.opcode == BinOpcode::Increment {
                McOp::Incr
            } else {
                McOp::Decr
            }
        }
        BinOpcode::Touch => {
            req.exptime = word.map_err(|_| BinStatus::InvalidArgs)?;
            McOp::Touch
        }
        BinOpcode::Flush => {
            // Extras carry the optional delay; anything but exactly 4
            // bytes means "now".
            req.exptime = word.unwrap_or(0);
            McOp::FlushAll
        }
        BinOpcode::Version => McOp::Version,
        // The frame key names the sub-report, as in the memcached spec.
        BinOpcode::Stat => McOp::Stats,
        BinOpcode::Noop | BinOpcode::Quit => return Err(BinStatus::Ok),
    };
    Ok(BinRequest {
        req,
        data: std::mem::take(&mut frame.value),
        create,
    })
}

/// Server encode: the executor's reply to `req` (decoded from `frame`) as
/// response frames. Empty for a quiet get's miss, which stays silent.
pub(crate) fn bin_response(frame: &BinFrame, req: &ReqHeader, reply: Reply) -> Vec<BinFrame> {
    let hdr = reply.hdr;
    let status = match hdr.status {
        RespStatus::Hit | RespStatus::Stored | RespStatus::Number | RespStatus::Ok => BinStatus::Ok,
        RespStatus::Miss if frame.opcode.is_quiet() => return Vec::new(),
        RespStatus::Miss | RespStatus::NotFound => BinStatus::KeyNotFound,
        RespStatus::NotStored => BinStatus::NotStored,
        RespStatus::Exists => BinStatus::KeyExists,
        RespStatus::TooLarge => BinStatus::TooLarge,
        RespStatus::OutOfMemory => BinStatus::OutOfMemory,
        RespStatus::NotNumeric => BinStatus::NonNumeric,
    };
    let mut resp = BinFrame::response(frame, status);
    let mut out = Vec::new();
    match hdr.status {
        RespStatus::Hit => {
            resp.extras = hdr.flags.to_be_bytes().to_vec();
            resp.cas = hdr.cas;
            resp.value = reply.data;
            if matches!(frame.opcode, BinOpcode::GetK | BinOpcode::GetKQ) {
                resp.key = req.keys[0].clone();
            }
        }
        RespStatus::Stored => resp.cas = hdr.cas,
        RespStatus::Number => resp.value = hdr.number.to_be_bytes().to_vec(),
        RespStatus::Ok if req.op == McOp::Version => resp.value = reply.data,
        RespStatus::Ok if req.op == McOp::Stats => {
            // One frame per statistic, terminated by an empty frame.
            for (k, v) in stats_pairs(&reply.data) {
                let mut f = BinFrame::response(frame, BinStatus::Ok);
                (f.key, f.value) = (k.into_bytes(), v.into_bytes());
                out.push(f);
            }
        }
        _ => {}
    }
    out.push(resp);
    out
}

/// Client encode: a request as binary frames. A multi-get becomes quiet
/// GetKQ frames closed by a Noop (the protocol's signature
/// optimization); everything else is one frame. Opaques count from 2.
pub(crate) fn request_frames(req: ReqHeader, data: Vec<u8>) -> Vec<BinFrame> {
    let ReqHeader {
        op,
        flags,
        exptime,
        cas,
        delta,
        keys,
        ..
    } = req;
    if op == McOp::Mget {
        let n = keys.len() as u32;
        let mut out: Vec<BinFrame> = (2..)
            .zip(keys)
            .map(|(opaque, key)| {
                let mut f = BinFrame::request(BinOpcode::GetKQ, opaque);
                f.key = key;
                f
            })
            .collect();
        out.push(BinFrame::request(BinOpcode::Noop, 2 + n));
        return out;
    }
    let opcode = match op {
        McOp::Get => BinOpcode::GetK,
        McOp::Set | McOp::Cas => BinOpcode::Set,
        McOp::Add => BinOpcode::Add,
        McOp::Replace => BinOpcode::Replace,
        McOp::Append => BinOpcode::Append,
        McOp::Prepend => BinOpcode::Prepend,
        McOp::Delete => BinOpcode::Delete,
        McOp::Incr => BinOpcode::Increment,
        McOp::Decr => BinOpcode::Decrement,
        McOp::Touch => BinOpcode::Touch,
        McOp::FlushAll => BinOpcode::Flush,
        McOp::Version => BinOpcode::Version,
        McOp::Stats | McOp::Mget => BinOpcode::Stat,
    };
    let mut f = BinFrame::request(opcode, 2);
    f.key = only_key(keys);
    match op {
        McOp::Set | McOp::Add | McOp::Replace | McOp::Cas => {
            (f.extras, f.cas, f.value) = (store_extras(flags, exptime), cas, data);
        }
        McOp::Append | McOp::Prepend => f.value = data,
        McOp::Incr | McOp::Decr => f.extras = arith_extras(delta, 0, u32::MAX),
        McOp::Touch => f.extras = exptime.to_be_bytes().to_vec(),
        McOp::FlushAll if exptime > 0 => f.extras = exptime.to_be_bytes().to_vec(),
        _ => {}
    }
    vec![f]
}

/// Client decode: the response frames to an `op` request as an AM reply.
pub(crate) fn frames_reply(
    op: McOp,
    frames: Vec<BinFrame>,
) -> Result<(RespHeader, Vec<u8>), McError> {
    let mut hdr = RespHeader::new(0, RespStatus::Ok);
    let mut data = Vec::new();
    let flags =
        |f: &BinFrame| <[u8; 4]>::try_from(f.extras.as_slice()).map_or(0, u32::from_be_bytes);
    match op {
        McOp::Mget => {
            hdr.status = RespStatus::Hit;
            for f in frames {
                match f.opcode {
                    BinOpcode::GetK | BinOpcode::GetKQ if f.status() == Some(BinStatus::Ok) => {
                        encode_mget_entry(&mut data, &f.key, flags(&f), f.cas, &f.value);
                        hdr.nvalues += 1;
                    }
                    BinOpcode::GetK | BinOpcode::GetKQ | BinOpcode::Noop => {}
                    _ => return Err(McError::Protocol),
                }
            }
        }
        McOp::Stats => {
            let lines: Vec<(String, String)> = frames
                .iter()
                .take_while(|f| !f.key.is_empty())
                .map(|f| {
                    (
                        String::from_utf8_lossy(&f.key).into_owned(),
                        String::from_utf8_lossy(&f.value).into_owned(),
                    )
                })
                .collect();
            data = stats_text(&lines).into_bytes();
        }
        _ => {
            let mut frames = frames;
            let f = frames.pop().ok_or(McError::Protocol)?;
            hdr.status = match f.status().ok_or(McError::Protocol)? {
                BinStatus::Ok => match op {
                    McOp::Get => {
                        (hdr.flags, hdr.cas) = (flags(&f), f.cas);
                        data = f.value;
                        RespStatus::Hit
                    }
                    McOp::Incr | McOp::Decr => {
                        let n = <[u8; 8]>::try_from(f.value.as_slice())
                            .map_err(|_| McError::Protocol)?;
                        hdr.number = u64::from_be_bytes(n);
                        RespStatus::Number
                    }
                    McOp::Set
                    | McOp::Add
                    | McOp::Replace
                    | McOp::Append
                    | McOp::Prepend
                    | McOp::Cas => RespStatus::Stored,
                    McOp::Version => {
                        data = f.value;
                        RespStatus::Ok
                    }
                    _ => RespStatus::Ok,
                },
                BinStatus::KeyNotFound if op == McOp::Get => RespStatus::Miss,
                BinStatus::KeyNotFound => RespStatus::NotFound,
                BinStatus::KeyExists => RespStatus::Exists,
                BinStatus::NotStored => RespStatus::NotStored,
                BinStatus::TooLarge => RespStatus::TooLarge,
                BinStatus::OutOfMemory => RespStatus::OutOfMemory,
                BinStatus::NonNumeric => RespStatus::NotNumeric,
                BinStatus::InvalidArgs | BinStatus::UnknownCommand => {
                    return Err(McError::Protocol)
                }
            };
        }
    }
    Ok((hdr, data))
}
