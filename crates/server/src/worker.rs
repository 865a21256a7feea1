//! The per-core worker: owns its connections, pins a `ReadView`, serves
//! frames.
//!
//! A worker multiplexes its connections without an event loop: every
//! stream gets a short read timeout, and the worker sweeps its connection
//! set round-robin — a read that times out costs one syscall and moves on,
//! a read that returns bytes feeds the incremental decoder. Each connection
//! reads into its own [`FrameBuf`]: the socket `read` lands in the buffer
//! the decoder looks at, decoded frames are consumed by bumping a cursor,
//! and responses are encoded in place (header reserved, then backpatched)
//! into the connection's outbox — a request's bytes are copied by the
//! kernel and by nobody else. Point reads go through the worker's pinned
//! [`ReadView`] (zero atomics per lookup); the view is
//! re-pinned after every write the worker performs and every
//! `view_refresh` reads, bounding how far it can lag writes made on other
//! workers. Hostile bytes never panic the worker: a typed
//! [`ProtocolError`](crate::errors::ProtocolError) closes that one
//! connection and every other connection keeps being served.
//!
//! [`ReadView`]: csv_concurrent::ReadView

use crate::codec::{decode_request, encode_response, Decoded, RecordStream};
use crate::frame_buf::FrameBuf;
use crate::protocol::{Request, Response, ServerStats, WriteOp};
use crate::server::Shared;
use core::ops::ControlFlow;
use csv_common::key::{Key, Value};
use csv_common::sync::Ordering;
use csv_common::traits::{RangeIndex, RemovableIndex, SnapshotIndex};
use csv_concurrent::{ReadView, ShardedIndex};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// How long a sweep asks to block on one silent connection before moving
/// to the next; on loopback a busy connection almost always has bytes
/// ready and never pays it. The kernel rounds a timeout this short up to
/// scheduler ticks: a timed-out read was measured to block ≈ 8 ms, so a
/// 100-connection worker whose connections are all idle visits each one
/// about once every 0.8 s, and every silent connection adds ≈ 8 ms to
/// each request of a busy one (ROADMAP item 23).
const READ_TIMEOUT: Duration = Duration::from_micros(500);

/// How long an idle worker (no connections at all) naps before polling
/// its intake channel again.
const IDLE_NAP: Duration = Duration::from_micros(200);

/// What one worker counted, folded into the
/// [`ServerReport`](crate::server::ServerReport).
#[derive(Debug, Default)]
pub(crate) struct WorkerReport {
    /// Connections this worker closed for sending malformed frames.
    pub(crate) protocol_errors: u64,
}

/// One connection owned by a worker.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet decoded into a full frame.
    inbox: FrameBuf,
    /// Encoded responses not yet flushed.
    outbox: Vec<u8>,
}

/// The worker's view of the index: a pinned snapshot, refreshed on writes
/// and every `view_refresh` reads.
struct Pinned<I> {
    view: ReadView<I>,
    reads_since_pin: usize,
    view_refresh: usize,
}

impl<I: SnapshotIndex + RangeIndex> Pinned<I> {
    fn new(index: &ShardedIndex<I>, view_refresh: usize) -> Self {
        Self {
            view: pin(index),
            reads_since_pin: 0,
            view_refresh,
        }
    }

    fn repin(&mut self, index: &ShardedIndex<I>) {
        self.view = pin(index);
        self.reads_since_pin = 0;
    }

    fn before_read(&mut self, index: &ShardedIndex<I>) {
        self.reads_since_pin += 1;
        if self.reads_since_pin >= self.view_refresh {
            self.repin(index);
        }
    }
}

fn pin<I: SnapshotIndex + RangeIndex>(index: &ShardedIndex<I>) -> ReadView<I> {
    index.read_view().expect("read_view is always Some")
}

/// Serves one decoded request, appending the encoded response frame to
/// `outbox`. Returns whether this request asked the whole server to stop.
fn handle_request<I>(
    req: Request,
    index: &ShardedIndex<I>,
    pinned: &mut Pinned<I>,
    shared: &Shared,
    outbox: &mut Vec<u8>,
) -> bool
where
    I: SnapshotIndex + RangeIndex + RemovableIndex,
{
    let mut ops = 1u64;
    let mut stop = false;
    let response = match req {
        Request::Get { key } => {
            pinned.before_read(index);
            Response::Value(pinned.view.get(key))
        }
        Request::MultiGet { keys } => {
            ops = keys.len() as u64;
            pinned.before_read(index);
            Response::Values(pinned.view.multi_get(&keys))
        }
        Request::Range { lo, hi, limit } => {
            // Stream records straight into the response frame as the scan
            // produces them — the full result set is never materialised.
            // The scan runs under the pinned per-shard snapshots; `push`
            // refuses the record that would overflow the frame cap and
            // flags the truncation, and a satisfied `limit` stops the scan
            // without flagging it.
            pinned.before_read(index);
            let mut stream = RecordStream::begin(outbox);
            let mut emit = |key: Key, value: Value| {
                if !stream.push(key, value) {
                    return ControlFlow::Break(());
                }
                if limit != 0 && stream.len() >= limit as usize {
                    return ControlFlow::Break(());
                }
                ControlFlow::Continue(())
            };
            let _ = pinned.view.range_visit(lo, hi, &mut emit);
            stream.finish();
            shared.ops.fetch_add(ops, Ordering::Relaxed);
            return false;
        }
        Request::Insert { key, value } => {
            let fresh = index.insert(key, value);
            pinned.repin(index);
            Response::Inserted(fresh)
        }
        Request::Remove { key } => {
            let removed = index.remove(key);
            pinned.repin(index);
            Response::Removed(removed)
        }
        Request::WriteBatch { ops: batch } => {
            ops = batch.len() as u64;
            // Group commit: one overlay update, one publication, one WAL
            // frame per touched shard instead of one of each per op.
            let group: Vec<csv_concurrent::WriteOp> = batch
                .iter()
                .map(|op| match *op {
                    WriteOp::Insert { key, value } => {
                        csv_concurrent::WriteOp::Insert { key, value }
                    }
                    WriteOp::Remove { key } => csv_concurrent::WriteOp::Remove { key },
                })
                .collect();
            let outcome = index.write_batch(&group);
            pinned.repin(index);
            Response::BatchApplied {
                fresh_inserts: outcome.fresh_inserts as u32,
                hits: outcome.removed as u32,
            }
        }
        Request::Stats => Response::Stats(ServerStats {
            keys: index.len() as u64,
            shards: index.num_shards() as u32,
            workers: shared.workers as u32,
            rcu: true,
            connections: shared.connections.load(Ordering::Relaxed),
            ops: shared.ops.load(Ordering::Relaxed),
            engine_healthy: shared.engine_is_healthy(),
            maintenance: shared.has_engine,
        }),
        Request::Shutdown => {
            stop = true;
            Response::ShuttingDown
        }
    };
    shared.ops.fetch_add(ops, Ordering::Relaxed);
    encode_response(&response, outbox);
    stop
}

/// Decodes and consumes every full frame currently in `conn.inbox`,
/// appending responses to `conn.outbox`. Returns `Err(())` when the
/// connection must close (malformed bytes); `Ok(true)` when a `Shutdown`
/// frame was served.
fn drain_frames<I>(
    conn: &mut Conn,
    index: &ShardedIndex<I>,
    pinned: &mut Pinned<I>,
    shared: &Shared,
    report: &mut WorkerReport,
) -> Result<bool, ()>
where
    I: SnapshotIndex + RangeIndex + RemovableIndex,
{
    loop {
        match decode_request(conn.inbox.pending()) {
            Ok(Decoded::Incomplete) => return Ok(false),
            Ok(Decoded::Frame { value, consumed }) => {
                conn.inbox.consume(consumed);
                if handle_request(value, index, pinned, shared, &mut conn.outbox) {
                    return Ok(true);
                }
            }
            Err(error) => {
                // Typed rejection: answer with the error (best-effort),
                // count it, and have the caller drop the connection. The
                // stream is unsynchronized from here on, so nothing after
                // the bad frame is trusted.
                report.protocol_errors += 1;
                encode_response(&Response::Error(error.to_string()), &mut conn.outbox);
                conn.stream.write_all(&conn.outbox).ok();
                return Err(());
            }
        }
    }
}

/// The worker thread body: adopt connections from the acceptor, sweep
/// them, decode, serve, repeat until the stop flag rises.
pub(crate) fn worker_loop<I>(
    index: Arc<ShardedIndex<I>>,
    shared: Arc<Shared>,
    intake: Receiver<TcpStream>,
    view_refresh: usize,
) -> WorkerReport
where
    I: SnapshotIndex + RangeIndex + RemovableIndex + 'static,
{
    let mut report = WorkerReport::default();
    let mut pinned = Pinned::new(&index, view_refresh);
    let mut conns: Vec<Conn> = Vec::new();
    let mut intake_open = true;

    while !shared.stop.load(Ordering::Relaxed) {
        // Adopt whatever the acceptor dealt us since the last sweep.
        while intake_open {
            match intake.try_recv() {
                Ok(stream) => {
                    // The short timeout is what lets one thread multiplex
                    // many blocking sockets; writes stay fully blocking.
                    if stream.set_read_timeout(Some(READ_TIMEOUT)).is_ok()
                        && stream.set_nodelay(true).is_ok()
                    {
                        conns.push(Conn {
                            stream,
                            inbox: FrameBuf::default(),
                            outbox: Vec::new(),
                        });
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    intake_open = false;
                }
            }
        }
        if conns.is_empty() {
            if !intake_open {
                break;
            }
            std::thread::sleep(IDLE_NAP);
            continue;
        }

        let mut i = 0;
        while i < conns.len() {
            let conn = &mut conns[i];
            let mut close = false;
            match conn.inbox.fill(&mut conn.stream) {
                Ok(0) => close = true, // orderly remote close
                Ok(_) => match drain_frames(conn, &index, &mut pinned, &shared, &mut report) {
                    Ok(saw_shutdown) => {
                        if !conn.outbox.is_empty() {
                            if conn.stream.write_all(&conn.outbox).is_err() {
                                close = true;
                            }
                            conn.outbox.clear();
                        }
                        if saw_shutdown {
                            shared.stop.store(true, Ordering::SeqCst);
                        }
                    }
                    Err(()) => close = true,
                },
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => close = true,
            }
            if close {
                conns.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
    report
}
