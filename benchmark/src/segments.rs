//! The four segments of the service lifecycle, one per workload name.
//!
//! Each drives the crates' public functions only, times its operations,
//! and checks every answer against the oracle outside the timed span. A
//! segment is given a share of `--seconds`; its work comes in fixed-size
//! units (a lookup round, a closed-loop batch, a pipelined round, an
//! ingest-crash-recover cycle) of a few milliseconds to a second, and it
//! runs as many units as the share allows; [`Run::reduce`] turns the units
//! of all passes into one value per metric.

use crate::fixture::{self, Bare, Served, Stack};
use crate::inputs::{Inputs, Sizes};
use crate::names::{self, Better};
use crate::oracle::{Oracle, Tally};
use crate::probe::{scan_pass, LookupPass};
use crate::stats::{median_f64, median_u64, quantile_sorted, tail_u64};
use crate::trace::Tracer;
use core::ops::ControlFlow;
use csv_common::traits::{collect_range_visit, LearnedIndex};
use csv_common::{Key, KeyValue, Value};
use csv_concurrent::{MaintenanceAction, MaintenanceConfig, MaintenanceEngine, WriteOp};
use csv_durability::{recover, DurabilityConfig};
use csv_lipp::LippIndex;
use csv_server::{
    decode_request, decode_response, encode_request, encode_response, Client, Decoded, Request,
    Response,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// Independent random streams, one per purpose.
mod stream {
    pub const LOOKUP_ALL: u64 = 1;
    pub const LOOKUP_DEEP: u64 = 2;
    pub const LOOKUP_SCAN: u64 = 3;
    pub const CLOSED: u64 = 4;
    pub const PIPELINED: u64 = 5;
    pub const MIXED_KEYS: u64 = 6;
    pub const MIXED_KINDS: u64 = 7;
    pub const OVERWRITES: u64 = 8;
    pub const TAIL: u64 = 9;
}

/// The quantile of a run's unit measurements that a timed metric reports:
/// the tenth percentile of "lower is better" units (the ninetieth of "higher
/// is better" ones). Interference on a shared box is one-sided — a busy
/// neighbour only ever slows a unit down, by up to 3x for seconds at a time
/// on the sizing box — so a run's quiet tenth repeats between runs where its
/// median does not. Within a unit the statistic is still the median.
pub const QUIET_QUANTILE: f64 = 0.10;

/// What one run has measured so far: every metric's unit measurements, in
/// the order taken, over all passes.
pub struct Run {
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Metrics that are a sum of parts, each part repeated once per unit
    /// (`maintain_s`: one part per engine tick): `parts[name][part]` holds
    /// that part's measurements over the units.
    parts: BTreeMap<&'static str, Vec<Vec<f64>>>,
    pub tally: Tally,
    /// `Some` while spans are being recorded (the last pass of a traced run).
    pub tracer: Option<Tracer>,
}

impl Run {
    pub fn new() -> Self {
        Self {
            samples: BTreeMap::new(),
            parts: BTreeMap::new(),
            tally: Tally::default(),
            tracer: None,
        }
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// One measurement of part `part` of a metric that is a sum of parts.
    /// The same deterministic work must yield the same parts in every unit.
    pub fn sample_part(&mut self, name: &'static str, part: usize, value: f64) {
        let parts = self.parts.entry(name).or_default();
        if parts.len() <= part {
            parts.resize(part + 1, Vec::new());
        }
        parts[part].push(value);
    }

    pub fn traced(&self) -> bool {
        self.tracer.is_some()
    }

    /// One value per metric: the quiet quantile of a timed metric's units
    /// (summed over its parts, when it has parts), the last value of a
    /// counted one, and the unit counts themselves as
    /// `bench.samples.<metric>`.
    pub fn reduce(&self) -> BTreeMap<&'static str, f64> {
        let quiet = |samples: &[f64], better: Better| {
            let mut sorted = samples.to_vec();
            sorted.sort_unstable_by(f64::total_cmp);
            let q = match better {
                Better::Lower => QUIET_QUANTILE,
                Better::Higher => 1.0 - QUIET_QUANTILE,
            };
            quantile_sorted(&sorted, q)
        };
        let mut metrics = BTreeMap::new();
        for &(name, unit, better) in names::END_TO_END.iter().chain(names::PER_LAYER) {
            if let Some(counted) = name.strip_prefix("bench.samples.") {
                let count = match self.parts.get(counted) {
                    Some(parts) => parts.first().map_or(0, Vec::len),
                    None => self.samples.get(counted).map_or(0, Vec::len),
                };
                metrics.insert(name, count as f64);
            } else if let Some(parts) = self.parts.get(name) {
                metrics.insert(name, parts.iter().map(|part| quiet(part, better)).sum());
            } else if let Some(samples) = self.samples.get(name).filter(|s| !s.is_empty()) {
                let value = if names::COUNTED_UNITS.contains(&unit) {
                    samples[samples.len() - 1]
                } else {
                    quiet(samples, better)
                };
                metrics.insert(name, value);
            }
        }
        metrics
    }
}

impl Default for Run {
    fn default() -> Self {
        Self::new()
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// lookup-bare
// ---------------------------------------------------------------------------

/// The paper's own experiment: point lookups on the bare smoothed LIPP, over
/// all keys and over the deepest tenth, in process, one thread.
pub fn lookup_bare(run: &mut Run, inputs: &Inputs, bare: &Bare, budget: Duration) {
    let sizes = &inputs.sizes;
    let mut oracle = Oracle::from_records(&inputs.records);
    let deep_keys = fixture::deepest_tenth(&bare.plain, &inputs.keys);
    let all = LookupPass::new(
        inputs.uniform(stream::LOOKUP_ALL, &inputs.keys, sizes.lookup_pass),
        &oracle,
        Sizes::BLOCK,
    );
    let deep = LookupPass::new(
        inputs.uniform(stream::LOOKUP_DEEP, &deep_keys, sizes.lookup_pass),
        &oracle,
        Sizes::BLOCK,
    );
    let traced = run.traced();
    let (mut blocks, mut other_blocks) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed() < budget {
        let all_ns = all.timed(&bare.smooth, &mut oracle.tally, &mut blocks);
        run.sample("lookup_ns", all_ns);
        run.sample(
            "deep_lookup_ns",
            deep.timed(&bare.smooth, &mut oracle.tally, &mut other_blocks),
        );
        if traced {
            run.sample("index.lipp.get_ns", all_ns);
            run.sample(
                "index.lipp.get_ns_unsmoothed",
                all.timed(&bare.plain, &mut oracle.tally, &mut other_blocks),
            );
            run.sample(
                "index.lipp.get_deep_ns_unsmoothed",
                deep.timed(&bare.plain, &mut oracle.tally, &mut other_blocks),
            );
        }
        other_blocks.clear();
        rounds += 1;
    }
    let smooth_stats = bare.smooth.stats();
    run.sample("mean_key_level", smooth_stats.mean_key_level());
    run.sample(
        "bytes_per_key",
        smooth_stats.size_bytes as f64 / smooth_stats.num_keys as f64,
    );
    if traced {
        run.sample(
            "index.lipp.mean_key_level_unsmoothed",
            bare.plain.stats().mean_key_level(),
        );
        run.sample(
            "index.lookup_p99_ns",
            tail_u64(&mut blocks, 0.99) as f64 / Sizes::BLOCK as f64,
        );
        let starts = inputs.uniform(stream::LOOKUP_SCAN, &inputs.keys, sizes.lookup_pass / 20);
        run.sample(
            "index.lipp.range100_us",
            scan_pass(&bare.smooth, &starts, Sizes::SCAN_LIMIT, &mut oracle),
        );
    }
    run.tally.absorb(oracle.tally);
}

// ---------------------------------------------------------------------------
// serve-read
// ---------------------------------------------------------------------------

/// Client-observed latencies of one closed-loop batch.
#[derive(Default)]
struct ClosedLoop {
    get_ns: Vec<u64>,
    multi_get_ns: Vec<u64>,
    scan_ns: Vec<u64>,
    /// Wall-clock of the batch divided by its iterations.
    ns_per_iteration: u64,
}

/// Where in the tracer's clock the three requests of one iteration started
/// and ended.
type Windows = [(u64, u64); 3];

/// The keys of one closed-loop iteration.
struct Iteration {
    get: Key,
    multi: Vec<Key>,
    scan_from: Key,
}

fn connect(addr: SocketAddr) -> Result<(Client, u64), String> {
    let t = Instant::now();
    let mut client = Client::connect(addr).map_err(|e| format!("connecting to the server: {e}"))?;
    // The acceptor hands the socket to the worker asynchronously; the first
    // answer proves the connection is being served.
    client.stats().map_err(|e| format!("first request: {e}"))?;
    Ok((client, ns(t)))
}

/// Read-only traffic through the server: `Get`, `MultiGet/64` and
/// `Range` limit 100 with one request in flight (phase A, what a blocking
/// client sees), then `Get`s pipelined 32 deep on a raw `TcpStream` (phase
/// B, which amortises the per-frame syscall and wake-up).
pub fn serve_read(
    run: &mut Run,
    inputs: &Inputs,
    bare: &Bare,
    stack: &Stack,
    oracle: &mut Oracle,
    budget: Duration,
) -> Result<(), String> {
    let sizes = &inputs.sizes;
    let addr = stack.server.local_addr();
    let mut zipf = inputs.zipf(stream::CLOSED);
    let mut next_batch = |iterations: usize| -> Vec<Iteration> {
        (0..iterations)
            .map(|_| Iteration {
                get: zipf.next_key(),
                multi: zipf.take(Sizes::MULTI_GET),
                scan_from: zipf.next_key(),
            })
            .collect()
    };

    // Phase A: a unit is one batch; its sample is the batch's median.
    let (mut client, connect_ns) = connect(addr)?;
    let (mut all_get, mut all_multi, mut all_scan) = (Vec::new(), Vec::new(), Vec::new());
    let mut untraced_ns_per_iteration = 0;
    let start = Instant::now();
    let mut batches = 0;
    while batches < 2 || start.elapsed() < budget / 2 {
        let mut unit = ClosedLoop::default();
        closed_loop_batch(
            &mut client,
            &next_batch(sizes.closed_batch),
            oracle,
            &mut unit,
            None,
        );
        run.sample("get_p50_us", median_u64(&mut unit.get_ns) as f64 / 1e3);
        run.sample(
            "multi_get64_p50_us",
            median_u64(&mut unit.multi_get_ns) as f64 / 1e3,
        );
        run.sample(
            "range100_p50_us",
            median_u64(&mut unit.scan_ns) as f64 / 1e3,
        );
        untraced_ns_per_iteration = unit.ns_per_iteration;
        if run.traced() {
            all_get.append(&mut unit.get_ns);
            all_multi.append(&mut unit.multi_get_ns);
            all_scan.append(&mut unit.scan_ns);
        }
        batches += 1;
    }

    if let Some(mut tracer) = run.tracer.take() {
        // The same kind of batch again with spans on: set against the batch
        // just before it, the difference is the tracing overhead; and the
        // recorded requests are replayed layer by layer for the
        // `server.wire.*` residuals.
        let mut traced = ClosedLoop::default();
        let batch = next_batch(sizes.traced_requests);
        let mut recorded = Vec::new();
        closed_loop_batch(
            &mut client,
            &batch,
            oracle,
            &mut traced,
            Some((&tracer, &mut recorded)),
        );
        let mut get_residuals = replay_requests(&mut tracer, bare, stack, &batch, &recorded);
        run.sample(
            "bench.trace_overhead_share",
            (traced.ns_per_iteration as f64 - untraced_ns_per_iteration as f64)
                / untraced_ns_per_iteration as f64,
        );
        run.sample(
            "server.wire.get_overhead_us",
            median_u64(&mut get_residuals) as f64 / 1e3,
        );
        run.sample("server.wire.connect_us", connect_ns as f64 / 1e3);
        run.sample(
            "server.read.get_p99_us",
            tail_u64(&mut all_get, 0.99) as f64 / 1e3,
        );
        run.sample(
            "server.read.multi_get64_p99_us",
            tail_u64(&mut all_multi, 0.99) as f64 / 1e3,
        );
        run.sample(
            "server.read.range100_p99_us",
            tail_u64(&mut all_scan, 0.99) as f64 / 1e3,
        );
        run.tracer = Some(tracer);
    }
    // One connection at a time: a second, idle connection would cost the
    // single worker a read timeout per sweep.
    drop(client);

    // Phase B: a unit is one round.
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connecting: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut zipf = inputs.zipf(stream::PIPELINED);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 3 || start.elapsed() < budget / 2 {
        let keys = zipf.take(sizes.pipelined_round);
        let ops_s = pipelined_round(&mut stream, &keys, oracle)?;
        run.sample("pipelined_get_ops_s", ops_s);
        rounds += 1;
    }
    Ok(())
}

/// Times one client call; with a tracer, also where in the tracer's clock
/// the call started and ended.
fn timed<R>(clock: Option<&Tracer>, call: impl FnOnce() -> R) -> (R, u64, (u64, u64)) {
    let begin = clock.map_or(0, Tracer::now_ns);
    let t = Instant::now();
    let result = call();
    let elapsed = ns(t);
    (result, elapsed, (begin, begin + elapsed))
}

/// One request in flight: send, block for the answer, time it, check it.
/// With `spans`, also records where in the tracer's clock each request
/// started and ended.
fn closed_loop_batch(
    client: &mut Client,
    batch: &[Iteration],
    oracle: &mut Oracle,
    out: &mut ClosedLoop,
    mut spans: Option<(&Tracer, &mut Vec<Windows>)>,
) {
    let clock = spans.as_ref().map(|(tracer, _)| *tracer);
    let batch_start = Instant::now();
    for it in batch {
        let (got, elapsed, get_window) = timed(clock, || client.get(it.get));
        out.get_ns.push(elapsed);
        oracle.check_get(it.get, got);

        let (got, elapsed, multi_window) = timed(clock, || client.multi_get(&it.multi));
        out.multi_get_ns.push(elapsed);
        oracle.check_multi_get(&it.multi, got);

        let (got, elapsed, scan_window) = timed(clock, || {
            client.range(it.scan_from, Key::MAX, Sizes::SCAN_LIMIT as u32)
        });
        out.scan_ns.push(elapsed);
        oracle.check_scan(
            it.scan_from,
            Sizes::SCAN_LIMIT,
            got.as_ref().map(|scan| scan.records.as_slice()),
        );

        if let Some((_, recorded)) = spans.as_mut() {
            recorded.push([get_window, multi_window, scan_window]);
        }
    }
    out.ns_per_iteration = ns(batch_start) / batch.len().max(1) as u64;
}

/// Pushes each recorded request through the layers under the server in
/// turn — codec, pinned `ReadView`, bare index walk — and records the
/// spans. Returns the `server.wire` residual of every `Get`.
fn replay_requests(
    tracer: &mut Tracer,
    bare: &Bare,
    stack: &Stack,
    batch: &[Iteration],
    recorded: &[Windows],
) -> Vec<u64> {
    let view = stack
        .served
        .read_view()
        .expect("the served index is on the RCU path");
    let (mut frame, mut answer) = (Vec::new(), Vec::new());
    let mut codec = |tracer: &Tracer, request: &Request, response: &Response| -> u64 {
        tracer
            .time(|| {
                frame.clear();
                encode_request(request, &mut frame);
                let decoded = decode_request(&frame);
                answer.clear();
                encode_response(response, &mut answer);
                (decoded.is_ok(), decode_response(&answer).is_ok())
            })
            .1
    };
    // One request span with its replayed children; returns the residual.
    let record = |tracer: &mut Tracer, name, window: (u64, u64), codec_ns, sharded_ns, index_ns| {
        tracer.request(
            name,
            window.0,
            window.1,
            &[
                ("server.codec", codec_ns, &[]),
                (
                    "concurrent.sharded",
                    sharded_ns,
                    &[("index.lipp", index_ns)],
                ),
            ],
            "server.wire",
        )
    };

    let mut get_residuals = Vec::with_capacity(batch.len());
    for (it, window) in batch.iter().zip(recorded) {
        let (value, sharded_ns) = tracer.time(|| view.get(it.get));
        let (_, index_ns) = tracer.time(|| bare.smooth.get(it.get));
        let codec_ns = codec(
            tracer,
            &Request::Get { key: it.get },
            &Response::Value(value),
        );
        get_residuals.push(record(
            tracer,
            "client.get",
            window[0],
            codec_ns,
            sharded_ns,
            index_ns,
        ));

        let (values, sharded_ns) = tracer.time(|| view.multi_get(&it.multi));
        let (_, index_ns) = tracer.time(|| {
            it.multi
                .iter()
                .fold(0u64, |sum, &k| sum ^ bare.smooth.get(k).unwrap_or(0))
        });
        let keys = it.multi.clone();
        let codec_ns = codec(
            tracer,
            &Request::MultiGet { keys },
            &Response::Values(values),
        );
        record(
            tracer,
            "client.multi_get64",
            window[1],
            codec_ns,
            sharded_ns,
            index_ns,
        );

        let (lo, limit) = (it.scan_from, Sizes::SCAN_LIMIT);
        let (records, sharded_ns) = tracer.time(|| {
            let mut records = Vec::with_capacity(limit);
            let _ = view.range_visit(lo, Key::MAX, &mut |key, value| {
                records.push(KeyValue { key, value });
                if records.len() >= limit {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            });
            records
        });
        let (_, index_ns) = tracer.time(|| collect_range_visit(&bare.smooth, lo, Key::MAX, limit));
        let codec_ns = codec(
            tracer,
            &Request::Range {
                lo,
                hi: Key::MAX,
                limit: limit as u32,
            },
            &Response::Records {
                records,
                truncated: false,
            },
        );
        record(
            tracer,
            "client.range100",
            window[2],
            codec_ns,
            sharded_ns,
            index_ns,
        );
    }
    get_residuals
}

/// `keys.len()` `Get`s kept [`Sizes::PIPELINE_DEPTH`] deep on a raw stream
/// through the public codec; answers are checked in order as they arrive.
/// Returns operations per second.
fn pipelined_round(
    stream: &mut TcpStream,
    keys: &[Key],
    oracle: &mut Oracle,
) -> Result<f64, String> {
    let expected: Vec<Option<Value>> = keys.iter().map(|&k| oracle.expected(k)).collect();
    let mut in_flight: VecDeque<usize> = VecDeque::with_capacity(Sizes::PIPELINE_DEPTH);
    let (mut sent, mut received, mut wrong) = (0usize, 0usize, 0u64);
    let (mut outbox, mut inbox) = (Vec::new(), Vec::new());
    let mut scratch = vec![0u8; 64 * 1024];
    let t = Instant::now();
    while received < keys.len() {
        outbox.clear();
        while sent < keys.len() && in_flight.len() < Sizes::PIPELINE_DEPTH {
            encode_request(&Request::Get { key: keys[sent] }, &mut outbox);
            in_flight.push_back(sent);
            sent += 1;
        }
        if !outbox.is_empty() {
            stream
                .write_all(&outbox)
                .map_err(|e| format!("pipelined write: {e}"))?;
        }
        let n = stream
            .read(&mut scratch)
            .map_err(|e| format!("pipelined read: {e}"))?;
        if n == 0 {
            return Err("the server closed the pipelined connection".into());
        }
        inbox.extend_from_slice(&scratch[..n]);
        let mut consumed_total = 0;
        loop {
            match decode_response(&inbox[consumed_total..]) {
                Ok(Decoded::Frame { value, consumed }) => {
                    consumed_total += consumed;
                    let slot = in_flight.pop_front().ok_or("an answer nobody asked for")?;
                    wrong += u64::from(value != Response::Value(expected[slot]));
                    received += 1;
                }
                Ok(Decoded::Incomplete) => break,
                Err(e) => return Err(format!("pipelined decode: {e}")),
            }
        }
        inbox.drain(..consumed_total);
    }
    let seconds = t.elapsed().as_secs_f64();
    oracle.tally.attempted += keys.len() as u64;
    oracle.tally.failed += wrong;
    Ok(keys.len() as f64 / seconds)
}

// ---------------------------------------------------------------------------
// serve-mixed
// ---------------------------------------------------------------------------

/// Reads beside writes through the server while the background engine
/// maintains shards: an open loop at a fixed rate, 90 % `Get`, 5 % `Insert`
/// of a held-out key, 5 % `Range` limit 100, Zipfian keys. Each operation is
/// due at a fixed instant whether or not the previous one has finished, so a
/// stall delays everything scheduled behind it and that delay is counted.
pub fn serve_mixed(
    run: &mut Run,
    inputs: &Inputs,
    stack: &Stack,
    oracle: &mut Oracle,
    budget: Duration,
) -> Result<(), String> {
    const SLO: u64 = 1_000_000; // answered within 1 ms of being due
    const STALL: u64 = 5_000_000; // a latency past 5 ms is a stall
                                  // A unit is a window of `WINDOW` operations; its sample is the median
                                  // service time of the window's `Get`s.
    const WINDOW: u64 = 50;
    let rate = inputs.sizes.mixed_rate;
    let total = ((budget.as_secs_f64() * rate as f64) as u64)
        .max(WINDOW)
        .next_multiple_of(WINDOW);
    let gap = Duration::from_nanos(1_000_000_000 / rate);
    let mut zipf = inputs.zipf(stream::MIXED_KEYS);
    let mut kinds = inputs.rng(stream::MIXED_KINDS);
    let mut held_out = inputs.held_out.iter().copied();
    let (mut client, _) = connect(stack.server.local_addr())?;

    let mut window_reads: Vec<u64> = Vec::new();
    let (mut write_service, mut scan_service) = (vec![], vec![]);
    let (mut read_due, mut write_due) = (vec![], vec![]);
    let (mut late_max, mut stall_max, mut stalled_ns, mut missed) = (0u64, 0u64, 0u64, 0u64);
    let start = Instant::now();
    for i in 0..total {
        let due = start + gap * i as u32;
        // Spin until the operation is due. A client that sleeps lets the
        // CPU halt, and its service times then read 9-35 us by the window
        // depending on what the wake-up costs; one that spins keeps the
        // CPU it shares with the worker awake, and gives it up the moment
        // it blocks on the answer.
        loop {
            let now = Instant::now();
            if now >= due {
                late_max = late_max.max((now - due).as_nanos() as u64);
                break;
            }
            std::hint::spin_loop();
        }
        let failed_before = oracle.tally.failed;
        let kind = kinds.next_below(100);
        let sent = Instant::now();
        let (service, due_samples) = if kind < 90 {
            let key = zipf.next_key();
            let got = client.get(key);
            let service = ns(sent);
            oracle.check_get(key, got);
            window_reads.push(service);
            (service, Some(&mut read_due))
        } else if kind < 95 {
            let Some(key) = held_out.next() else {
                return Err("serve-mixed ran out of held-out keys".into());
            };
            let got = client.insert(key, key);
            let service = ns(sent);
            oracle.check_insert(key, key, got);
            write_service.push(service);
            (service, Some(&mut write_due))
        } else {
            let lo = zipf.next_key();
            let got = client.range(lo, Key::MAX, Sizes::SCAN_LIMIT as u32);
            let service = ns(sent);
            oracle.check_scan(
                lo,
                Sizes::SCAN_LIMIT,
                got.as_ref().map(|s| s.records.as_slice()),
            );
            scan_service.push(service);
            (service, None)
        };
        let from_due = (sent - due).as_nanos() as u64 + service;
        if let Some(samples) = due_samples {
            samples.push(from_due);
        }
        // A failed operation misses any latency limit.
        missed += u64::from(from_due > SLO || oracle.tally.failed > failed_before);
        stall_max = stall_max.max(from_due);
        if from_due > STALL {
            stalled_ns += from_due;
        }
        if (i + 1) % WINDOW == 0 && !window_reads.is_empty() {
            run.sample(
                "read_service_p50_us",
                median_u64(&mut window_reads) as f64 / 1e3,
            );

            window_reads.clear();
        }
    }
    drop(client);

    if run.traced() {
        run.sample("server.mixed.slo_miss_share", missed as f64 / total as f64);
        run.sample(
            "server.mixed.write_service_p50_us",
            median_u64(&mut write_service) as f64 / 1e3,
        );
        run.sample(
            "server.mixed.scan_service_p50_us",
            median_u64(&mut scan_service) as f64 / 1e3,
        );
        run.sample(
            "server.mixed.read_p99_us",
            tail_u64(&mut read_due, 0.99) as f64 / 1e3,
        );
        run.sample(
            "server.mixed.write_p99_us",
            tail_u64(&mut write_due, 0.99) as f64 / 1e3,
        );
        run.sample("server.mixed.stall_max_ms", stall_max as f64 / 1e6);
        run.sample("server.mixed.stalled_s", stalled_ns as f64 / 1e9);
        run.sample("server.mixed.generator_late_max_ms", late_max as f64 / 1e6);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// ingest-recover
// ---------------------------------------------------------------------------

fn upserts(keys: &[Key], value_base: u64) -> Vec<(Key, Value)> {
    keys.iter()
        .enumerate()
        .map(|(i, &k)| (k, value_base + i as u64))
        .collect()
}

/// `write_batch` in groups of 64, timed as a whole; the acknowledged groups
/// are applied to the oracle and their fresh-key counts checked afterwards.
fn write_groups(index: &Served, batch: &[(Key, Value)], oracle: &mut Oracle) -> f64 {
    let ops: Vec<WriteOp> = batch
        .iter()
        .map(|&(key, value)| WriteOp::Insert { key, value })
        .collect();
    let mut fresh = Vec::with_capacity(ops.len() / Sizes::WRITE_GROUP + 1);
    let t = Instant::now();
    for group in ops.chunks(Sizes::WRITE_GROUP) {
        fresh.push(index.write_batch(group).fresh_inserts);
    }
    let seconds = t.elapsed().as_secs_f64();
    for (group, fresh) in batch.chunks(Sizes::WRITE_GROUP).zip(fresh) {
        oracle.check_insert_batch(group, fresh);
    }
    seconds
}

fn dir_bytes(dir: &Path, suffix: &str) -> std::io::Result<u64> {
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(suffix) {
            bytes += entry.metadata()?.len();
        }
    }
    Ok(bytes)
}

fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// The same write, maintenance and durability layers as `serve-mixed` used
/// differently: batched not point writes, the engine driven synchronously
/// not racing a writer, then a crash and recovery. In process, one thread.
pub fn ingest_recover(
    run: &mut Run,
    inputs: &Inputs,
    out_dir: &Path,
    budget: Duration,
) -> Result<(), String> {
    let start = Instant::now();
    let mut units = 0;
    while units < 1 || start.elapsed() < budget {
        ingest_unit(run, inputs, out_dir, run.traced() && units == 0)?;
        units += 1;
    }
    Ok(())
}

/// One cycle over a fresh durable index: (1) Zipfian overwrites through
/// `write_batch/64`; (2) bursts of held-out inserts, each followed by
/// maintenance until idle; (3) more writes with no maintenance, a crash
/// (everything dropped, no orderly checkpoint), and recovery of copies of
/// the store, each verified against every acknowledged write. The first
/// cycle of a traced pass also reports the counts and per-pass times.
fn ingest_unit(
    run: &mut Run,
    inputs: &Inputs,
    out_dir: &Path,
    detailed: bool,
) -> Result<(), String> {
    let sizes = &inputs.sizes;
    let store = out_dir.join("ingest-store");
    let (index, sink) = fixture::build_durable(inputs, &store)?;
    let mut oracle = Oracle::from_records(&inputs.records);

    // (1) overwrites, WAL on. A unit is one round.
    let mut zipf = inputs.zipf(stream::OVERWRITES);
    for round in 0..sizes.overwrite_rounds {
        let batch = upserts(
            &zipf.take(sizes.overwrite_round),
            round as u64 * 1_000_000_007,
        );
        let seconds = write_groups(&index, &batch, &mut oracle);
        run.sample("write_ops_s", batch.len() as f64 / seconds);
    }

    // (2) maintained bursts. `run_once` until idle is `run_until_idle`,
    // with each tick timed. The index, the inserts and so the engine's
    // ticks are the same in every cycle, so `maintain_s` is reduced tick by
    // tick: a neighbour's busy spell inflates some ticks of one cycle, and
    // the same ticks of another cycle still read true.
    let engine = MaintenanceEngine::new(fixture::optimizer(), MaintenanceConfig::default());
    let (mut actions, mut refits) = (0usize, 0usize);
    let (mut pass_ms, mut level_drift) = (Vec::new(), Vec::new());
    for burst in inputs
        .held_out
        .chunks(sizes.burst_inserts)
        .take(sizes.bursts)
    {
        write_groups(&index, &upserts(burst, 7), &mut oracle);
        let dirty_level = detailed.then(|| index.stats().mean_key_level());
        loop {
            let t = Instant::now();
            let action = engine.run_once(&index);
            let seconds = t.elapsed().as_secs_f64();
            if action.is_idle() {
                break;
            }
            run.sample_part("maintain_s", actions, seconds);
            actions += 1;
            pass_ms.push(seconds * 1e3);
            if let MaintenanceAction::Maintained { report, .. } = &action {
                refits += report.gap_refits;
            }
        }
        if let Some(dirty_level) = dirty_level {
            level_drift.push(dirty_level - index.stats().mean_key_level());
        }
    }
    if detailed {
        let stats = index.stats();
        run.sample("concurrent.maintain.actions", actions as f64);
        run.sample("concurrent.maintain.refits", refits as f64);
        run.sample("concurrent.maintain.pass_ms_p50", median_f64(&mut pass_ms));
        // `median_f64` left the passes sorted: the last one is the longest.
        run.sample(
            "concurrent.maintain.pass_ms_max",
            pass_ms.last().copied().unwrap_or(0.0),
        );
        run.sample(
            "concurrent.maintain.mean_key_level_drift",
            level_drift.iter().sum::<f64>() / level_drift.len().max(1) as f64,
        );
        run.sample(
            "concurrent.maintain.mean_key_level_after",
            stats.mean_key_level(),
        );
        run.sample(
            "concurrent.maintain.bytes_per_key_after",
            stats.size_bytes as f64 / stats.num_keys as f64,
        );
    }

    // (3) unmaintained tail, crash, recover. A unit is one recovery.
    let tail = upserts(&inputs.zipf(stream::TAIL).take(sizes.tail_writes), 11);
    write_groups(&index, &tail, &mut oracle);
    let store_bytes = dir_bytes(&store, "").map_err(|e| format!("sizing the store: {e}"))?;
    run.sample(
        "disk_bytes_per_key",
        store_bytes as f64 / index.len() as f64,
    );
    if detailed {
        let persisted = sink.stats();
        run.sample("durability.wal_records", persisted.wal_records as f64);
        run.sample("durability.checkpoints", persisted.checkpoints as f64);
    }
    drop(index);
    drop(sink);

    for copy in 0..sizes.recoveries {
        let dir = out_dir.join(format!("ingest-recover-{copy}"));
        copy_store(&store, &dir).map_err(|e| format!("copying the store: {e}"))?;
        let t = Instant::now();
        let recovered =
            recover::<LippIndex>(DurabilityConfig::new(&dir), fixture::sharding(sizes.shards))
                .map_err(|e| format!("recovery: {e}"))?;
        run.sample("recover_s", t.elapsed().as_secs_f64());
        oracle.check_contents(&recovered.index.range(0, Key::MAX));
        if detailed && copy == 0 {
            let report = &recovered.report;
            run.sample(
                "durability.replay_records_per_s",
                report.replayed() as f64 / report.elapsed.as_secs_f64(),
            );
            // Give every shard a backlog to fold, then checkpoint each.
            write_groups(&recovered.index, &tail, &mut oracle);
            for shard in 0..recovered.index.num_shards() {
                let t = Instant::now();
                recovered.index.checkpoint_shard(shard);
                run.sample(
                    "durability.checkpoint_ms_per_shard",
                    t.elapsed().as_secs_f64() * 1e3,
                );
            }
            run.sample(
                "durability.checkpoint_bytes_per_key",
                dir_bytes(&dir, ".ckpt").map_err(|e| e.to_string())? as f64
                    / recovered.index.len() as f64,
            );
        }
        drop(recovered);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&store);
    run.tally.absorb(oracle.tally);
    Ok(())
}
