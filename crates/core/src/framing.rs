//! One frame reader for every stream connection, server and client side.
//!
//! ASCII commands, ASCII responses and binary frames all arrive the same
//! way: parse what is buffered, and when the parser needs more bytes, read
//! one more chunk of up to 64 KiB from the socket. Every read charges the
//! socket's `app_recv`, so the virtual schedule depends only on which
//! parses want more bytes, never on how the reader buffers them.
//!
//! The reader keeps the bytes no frame has consumed yet. A chunk read into
//! an empty buffer becomes the buffer as-is, and a parsed frame is
//! consumed by advancing an offset, so a frame that arrives in one chunk
//! costs no copy here and is parsed once.

use mcproto::ProtoError;
use socksim::Socket;

/// Largest chunk one socket read asks for.
const READ_CHUNK: usize = 64 * 1024;

/// Result of an incremental parse: `Ok(None)` wants more bytes, `Ok(Some)`
/// is a frame and the bytes it used.
pub(crate) type Parsed<T> = Result<Option<(T, usize)>, ProtoError>;

/// Why [`FrameReader::next`] returned no frame.
#[derive(Debug)]
pub(crate) enum ReadError {
    /// The connection closed before a whole frame arrived.
    Closed,
    /// The buffered bytes are not a valid frame.
    Malformed,
}

/// The unconsumed bytes of one stream connection.
#[derive(Default)]
pub(crate) struct FrameReader {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by parsed frames.
    pos: usize,
}

impl FrameReader {
    /// Parses the next frame with `parse`, reading chunks from `sock` while
    /// the parse wants more bytes.
    pub(crate) async fn next<T>(
        &mut self,
        sock: &Socket,
        parse: impl Fn(&[u8]) -> Parsed<T>,
    ) -> Result<T, ReadError> {
        loop {
            match parse(&self.buf[self.pos..]) {
                Ok(Some((frame, used))) => {
                    self.pos += used;
                    return Ok(frame);
                }
                Ok(None) => {
                    let chunk = sock.read(READ_CHUNK).await.map_err(|_| ReadError::Closed)?;
                    self.append(chunk);
                }
                Err(_) => return Err(ReadError::Malformed),
            }
        }
    }

    /// Adds a chunk behind the unconsumed bytes; adopts it when there are
    /// none.
    fn append(&mut self, chunk: Vec<u8>) {
        if self.pos == self.buf.len() {
            self.buf = chunk;
        } else {
            self.buf.drain(..self.pos);
            self.buf.extend_from_slice(&chunk);
        }
        self.pos = 0;
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use mcproto::{encode_response, parse_response, Response};
    use simnet::{Cluster, NodeId, SimDuration, Stack};
    use socksim::{SockFabric, SocketAddr, DEFAULT_CONNECT_TIMEOUT};

    use super::{FrameReader, ReadError};

    /// Frames glued into one write come out one by one; a frame split
    /// across writes is reassembled behind the unconsumed bytes; then a
    /// malformed line and a closed connection surface as errors.
    #[test]
    fn frames_glued_split_malformed_and_closed() {
        let cluster = Rc::new(Cluster::cluster_b(1, 2));
        let fabric = SockFabric::new(cluster.clone());
        let sim = cluster.sim().clone();
        sim.clone().block_on(async move {
            let addr = SocketAddr {
                node: NodeId(1),
                port: 11211,
            };
            let listener = fabric.listen(Stack::Sdp, addr.node, addr.port).unwrap();
            let accepted = sim.spawn(async move { listener.accept().await.unwrap() });
            let client = Rc::new(
                fabric
                    .connect(Stack::Sdp, NodeId(0), addr, DEFAULT_CONNECT_TIMEOUT)
                    .await
                    .unwrap(),
            );
            let server = accepted.await;
            let mut reader = FrameReader::default();
            let stored = encode_response(&Response::Stored);
            let number = encode_response(&Response::Number(42));

            client
                .write_all(&[stored.as_slice(), &number, &number[..3]].concat())
                .await
                .unwrap();
            let (writer, tail, sim2) = (client.clone(), number[3..].to_vec(), sim.clone());
            sim.spawn(async move {
                sim2.sleep(SimDuration::from_millis(1)).await;
                writer.write_all(&tail).await.unwrap();
                writer.write_all(b"bogus\r\n").await.unwrap();
            });
            for want in [Response::Stored, Response::Number(42), Response::Number(42)] {
                let got = reader.next(&server, parse_response).await.unwrap();
                assert_eq!(got, want);
            }
            assert!(matches!(
                reader.next(&server, parse_response).await,
                Err(ReadError::Malformed)
            ));

            let mut reader = FrameReader::default();
            client.close();
            assert!(matches!(
                reader.next(&server, parse_response).await,
                Err(ReadError::Closed)
            ));
        });
    }
}
