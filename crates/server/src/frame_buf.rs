//! The receive buffer both ends of a connection decode frames out of.
//!
//! One reusable allocation with a consume cursor (`head`) and a fill cursor
//! (`tail`): [`FrameBuf::fill`] has the socket `read` land directly in the
//! spare room behind `tail`, the decoders look at [`FrameBuf::pending`]
//! (`head..tail`), and [`FrameBuf::consume`] bumps `head` past a decoded
//! frame. Nothing is copied on the way in, and the buffer is zero-filled
//! only when it grows — never per request. Bytes move only when the tail
//! runs out of room with unconsumed bytes still pending: those (a partial
//! frame, by construction) slide to the front once. A buffer whose frames
//! were all consumed rewinds for free.

use crate::protocol::{HEADER_LEN, MAX_FRAME_LEN};
use std::io::{self, Read};

/// First allocation: what one `read` can return at most until a larger
/// frame makes the buffer grow.
const INITIAL_LEN: usize = 64 * 1024;

/// Largest the buffer ever gets: the decoders refuse a longer frame from
/// its header alone, so a peer cannot make it grow past one maximal frame.
const MAX_LEN: usize = HEADER_LEN + MAX_FRAME_LEN;

/// Received-but-undecoded bytes of one connection.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    /// Initialised storage; `bytes[head..tail]` is pending input.
    bytes: Vec<u8>,
    head: usize,
    tail: usize,
}

impl FrameBuf {
    /// The bytes received and not yet consumed.
    pub(crate) fn pending(&self) -> &[u8] {
        &self.bytes[self.head..self.tail]
    }

    /// Drops `n` pending bytes (a decoded frame) from the front.
    pub(crate) fn consume(&mut self, n: usize) {
        debug_assert!(n <= self.tail - self.head, "consumed past the fill cursor");
        self.head += n;
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        }
    }

    /// One `read` from `src` into the spare room; returns what `read`
    /// returned (`Ok(0)` is the peer's orderly close). Call when the
    /// decoder reports the pending bytes incomplete.
    pub(crate) fn fill(&mut self, src: &mut impl Read) -> io::Result<usize> {
        if self.tail == self.bytes.len() {
            if self.head > 0 {
                self.bytes.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            } else {
                // One incomplete frame fills the whole buffer.
                let grown = (self.bytes.len() * 2).clamp(INITIAL_LEN, MAX_LEN);
                self.bytes.resize(grown, 0);
            }
        }
        let n = src.read(&mut self.bytes[self.tail..])?;
        self.tail += n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_response, encode_response, Decoded, MAX_RECORDS_PER_FRAME};
    use crate::protocol::Response;
    use csv_common::key::KeyValue;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    /// A connected loopback pair: `(reader end, writer end)`.
    fn loopback() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        writer.set_nodelay(true).unwrap();
        let (reader, _) = listener.accept().unwrap();
        (reader, writer)
    }

    fn records(n: usize, salt: u64) -> Response {
        Response::Records {
            records: (0..n as u64)
                .map(|i| KeyValue {
                    key: i,
                    value: i ^ salt,
                })
                .collect(),
            truncated: false,
        }
    }

    fn encoded(response: &Response) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode_response(response, &mut bytes);
        bytes
    }

    /// Reads the next response off `stream` the way `Client` and the
    /// worker do; also reports how many `fill`s it took.
    fn next_response(buf: &mut FrameBuf, stream: &mut TcpStream) -> (Response, usize) {
        let mut fills = 0;
        loop {
            match decode_response(buf.pending()).unwrap() {
                Decoded::Frame { value, consumed } => {
                    buf.consume(consumed);
                    return (value, fills);
                }
                Decoded::Incomplete => {
                    assert_ne!(buf.fill(stream).unwrap(), 0, "peer closed mid-frame");
                    fills += 1;
                }
            }
        }
    }

    #[test]
    fn a_response_delivered_one_byte_per_write_decodes_intact() {
        let (mut reader, mut writer) = loopback();
        let response = records(5, 0xABCD);
        let bytes = encoded(&response);
        let sender = std::thread::spawn(move || {
            for byte in bytes {
                writer.write_all(&[byte]).unwrap();
            }
            writer
        });
        let mut buf = FrameBuf::default();
        assert_eq!(next_response(&mut buf, &mut reader).0, response);
        assert!(buf.pending().is_empty());
        sender.join().unwrap();
    }

    #[test]
    fn two_responses_coalesced_in_one_segment_decode_without_a_second_read() {
        let (mut reader, mut writer) = loopback();
        let (first, second) = (Response::Value(Some(7)), Response::Inserted(true));
        let mut segment = encoded(&first);
        segment.extend_from_slice(&encoded(&second));
        writer.write_all(&segment).unwrap();
        let mut buf = FrameBuf::default();
        // One write of two small frames on loopback arrives as one segment;
        // wait until all of it is readable so the first fill takes both.
        let mut peeked = vec![0u8; segment.len()];
        while reader.peek(&mut peeked).unwrap() < segment.len() {
            std::thread::yield_now();
        }
        assert_eq!(next_response(&mut buf, &mut reader), (first, 1));
        assert_eq!(next_response(&mut buf, &mut reader), (second, 0));
        assert!(buf.pending().is_empty());
    }

    #[test]
    fn a_frame_straddling_a_compaction_decodes_intact() {
        let (mut reader, mut writer) = loopback();
        // Three ~30 KiB frames against a 64 KiB buffer: the third is cut by
        // the buffer's end, so its head must slide to the front before the
        // rest can be read behind it.
        let responses: Vec<Response> = (0..3u64).map(|salt| records(1_900, salt)).collect();
        let stream: Vec<u8> = responses.iter().flat_map(encoded).collect();
        assert!(stream.len() > INITIAL_LEN && stream.len() < 2 * INITIAL_LEN);
        let sender = std::thread::spawn(move || {
            writer.write_all(&stream).unwrap();
            writer
        });
        let mut buf = FrameBuf::default();
        // Let the first fill take a whole buffer's worth, so the cut falls
        // inside the third frame whatever the segment sizes were.
        let mut peeked = vec![0u8; INITIAL_LEN];
        while reader.peek(&mut peeked).unwrap() < INITIAL_LEN {
            std::thread::yield_now();
        }
        for expected in &responses {
            assert_eq!(&next_response(&mut buf, &mut reader).0, expected);
        }
        assert!(buf.pending().is_empty());
        assert_eq!(buf.bytes.len(), INITIAL_LEN, "compaction, not growth");
        sender.join().unwrap();
    }

    #[test]
    fn a_one_mebibyte_records_frame_grows_the_buffer_to_one_frame_and_no_further() {
        let (mut reader, mut writer) = loopback();
        let response = records(MAX_RECORDS_PER_FRAME, 0x5EED);
        let bytes = encoded(&response);
        let frame_len = bytes.len();
        assert!(frame_len > MAX_LEN - 16 && frame_len <= MAX_LEN);
        let sender = std::thread::spawn(move || {
            writer.write_all(&bytes).unwrap();
            // A small frame behind it reuses the grown buffer.
            writer.write_all(&encoded(&Response::ShuttingDown)).unwrap();
            writer
        });
        let mut buf = FrameBuf::default();
        assert_eq!(next_response(&mut buf, &mut reader).0, response);
        assert_eq!(
            next_response(&mut buf, &mut reader).0,
            Response::ShuttingDown
        );
        assert!((frame_len..=MAX_LEN).contains(&buf.bytes.len()));
        sender.join().unwrap();
    }
}
