//! A small blocking client for the serving protocol.
//!
//! One request in flight at a time: encode, send, block until the response
//! frame decodes. This is all the load generator and the tests need, and
//! it doubles as the reference implementation of the client side of the
//! protocol.

use crate::codec::{
    decode_response, encode_multi_get, encode_request, encode_write_batch, Decoded,
};
use crate::errors::ClientError;
use crate::frame_buf::FrameBuf;
use crate::protocol::{Request, Response, ServerStats, WriteOp};
use csv_common::key::{Key, KeyValue, Value};
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};

/// Result of a range scan: the records (ascending by key) plus whether
/// the server cut the scan at the 1 MiB frame cap before the range (or
/// the requested limit) was exhausted. Truncation is typed, not an error:
/// the records are a complete prefix and the caller can continue from
/// `records.last().key + 1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeScan {
    /// The returned records, ascending by key.
    pub records: Vec<KeyValue>,
    /// `true` when the server stopped at the frame cap.
    pub truncated: bool,
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    stream: TcpStream,
    /// Bytes received but not yet decoded.
    inbox: FrameBuf,
    /// Reused encode buffer: the request about to be sent.
    outbox: Vec<u8>,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            inbox: FrameBuf::default(),
            outbox: Vec::new(),
        })
    }

    /// Sends one request and blocks until its response arrives.
    pub fn request(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(|outbox| encode_request(req, outbox))
    }

    /// Sends the one request frame `encode` appends to the (cleared)
    /// outbox and blocks until its response arrives.
    fn send(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<Response, ClientError> {
        self.outbox.clear();
        encode(&mut self.outbox);
        self.stream.write_all(&self.outbox)?;
        loop {
            match decode_response(self.inbox.pending())? {
                Decoded::Frame { value, consumed } => {
                    self.inbox.consume(consumed);
                    return match value {
                        Response::Error(msg) => Err(ClientError::Server(msg)),
                        other => Ok(other),
                    };
                }
                Decoded::Incomplete => {
                    if self.inbox.fill(&mut self.stream)? == 0 {
                        return Err(ClientError::Disconnected);
                    }
                }
            }
        }
    }

    /// Point lookup.
    pub fn get(&mut self, key: Key) -> Result<Option<Value>, ClientError> {
        match self.request(&Request::Get { key })? {
            Response::Value(v) => Ok(v),
            _ => Err(ClientError::Unexpected("Value")),
        }
    }

    /// Batched point lookup; results come back in request order.
    pub fn multi_get(&mut self, keys: &[Key]) -> Result<Vec<Option<Value>>, ClientError> {
        match self.send(|outbox| encode_multi_get(keys, outbox))? {
            Response::Values(v) => Ok(v),
            _ => Err(ClientError::Unexpected("Values")),
        }
    }

    /// Range scan over `[lo, hi]`; `limit == 0` means unlimited. The
    /// server streams records into one response frame and reports (typed,
    /// in [`RangeScan::truncated`]) when it had to stop at the frame cap.
    pub fn range(&mut self, lo: Key, hi: Key, limit: u32) -> Result<RangeScan, ClientError> {
        match self.request(&Request::Range { lo, hi, limit })? {
            Response::Records { records, truncated } => Ok(RangeScan { records, truncated }),
            _ => Err(ClientError::Unexpected("Records")),
        }
    }

    /// Insert or overwrite; `Ok(true)` when the key was new.
    pub fn insert(&mut self, key: Key, value: Value) -> Result<bool, ClientError> {
        match self.request(&Request::Insert { key, value })? {
            Response::Inserted(fresh) => Ok(fresh),
            _ => Err(ClientError::Unexpected("Inserted")),
        }
    }

    /// Remove; returns the removed value when the key existed.
    pub fn remove(&mut self, key: Key) -> Result<Option<Value>, ClientError> {
        match self.request(&Request::Remove { key })? {
            Response::Removed(v) => Ok(v),
            _ => Err(ClientError::Unexpected("Removed")),
        }
    }

    /// Applies writes in order; returns `(fresh_inserts, remove_hits)`.
    pub fn write_batch(&mut self, ops: &[WriteOp]) -> Result<(u32, u32), ClientError> {
        match self.send(|outbox| encode_write_batch(ops, outbox))? {
            Response::BatchApplied {
                fresh_inserts,
                hits,
            } => Ok((fresh_inserts, hits)),
            _ => Err(ClientError::Unexpected("BatchApplied")),
        }
    }

    /// Fetches a server statistics snapshot.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.request(&Request::Stats)? {
            Response::Stats(s) => Ok(s),
            _ => Err(ClientError::Unexpected("Stats")),
        }
    }

    /// Asks the whole server to stop; returns once it acknowledged.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            _ => Err(ClientError::Unexpected("ShuttingDown")),
        }
    }

    /// Sends raw bytes down the connection — the hostile-input tests use
    /// this to prove a garbage stream only costs the sender its own
    /// connection.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<(), ClientError> {
        self.stream.write_all(bytes)?;
        Ok(())
    }

    /// Reads until the server closes this connection, returning whatever
    /// bytes arrived first (e.g. the typed error response).
    pub fn read_until_closed(&mut self) -> Vec<u8> {
        while matches!(self.inbox.fill(&mut self.stream), Ok(n) if n > 0) {}
        let bytes = self.inbox.pending().to_vec();
        self.inbox.consume(bytes.len());
        bytes
    }
}
