//! `net_serve`: two client connections replaying a read-heavy Zipf stream
//! against a small in-memory engine behind the framed protocol.

use super::{
    err, finish_setup, finish_trace, ns_since, timed_setup, Busy, Layers, RssAt, RunConfig, Windows,
};
use crate::model::{self, EngineOp};
use crate::report::Outcome;
use crate::stats::Latencies;
use crate::trace::{SpanId, Tracer};
use onion_core::{Onion2D, Point, SfcError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sfc_engine::{Engine, EngineConfig, Op, Reply};
use sfc_index::{DiskModel, ShardedTable, WalCodec, WalCursor};
use sfc_net::{Client, Request, Response, Server};
use sfc_workloads::{client_streams, OpMix};
use std::sync::Arc;
use std::time::Instant;

/// Sizes of the network workload.
#[derive(Clone, Copy, Debug)]
pub struct NetSizes {
    /// Universe side.
    pub side: u32,
    /// Shards.
    pub shards: usize,
    /// Records loaded, at distinct uniform cells.
    pub records: usize,
    /// Ops generated per client; the timed loop cycles through them.
    pub stream: usize,
    /// Ops per client replayed in order for the output check.
    pub replay: usize,
    /// Ops of the first client after which the peak RSS is read.
    pub rss_ops: u64,
}

impl NetSizes {
    /// The benchmark's sizes: 16,384 records on side 256 in 4 shards.
    pub fn full() -> Self {
        NetSizes {
            side: 256,
            shards: 4,
            records: 16_384,
            stream: 1 << 17,
            replay: 4096,
            rss_ops: 100_000,
        }
    }

    /// Sizes for the tests.
    pub fn tiny() -> Self {
        NetSizes {
            side: 64,
            shards: 4,
            records: 1024,
            stream: 4096,
            replay: 512,
            rss_ops: 100,
        }
    }
}

/// Load connections, one thread each.
pub const CLIENTS: usize = 2;

/// Zipf exponent of the hot cells.
const ZIPF: f64 = 0.8;

/// Largest query side.
const MAX_QUERY_SIDE: u32 = 8;

type Served = Engine<Onion2D, u64, 2>;
type NetClient = Client<Onion2D, u64, 2>;

fn engine(sizes: &NetSizes, records: &[(Point<2>, u64)]) -> Result<Arc<Served>, String> {
    let curve = Onion2D::new(sizes.side).map_err(err)?;
    let table = ShardedTable::build(curve, records.to_vec(), DiskModel::ssd(), sizes.shards)
        .map_err(err)?;
    Ok(Arc::new(Engine::new(table, EngineConfig::default())))
}

/// A served engine and its connected clients. Fields drop in order.
struct System {
    clients: Vec<NetClient>,
    _server: Server,
}

fn start(sizes: &NetSizes, records: &[(Point<2>, u64)], clients: usize) -> Result<System, String> {
    let server = Server::spawn(engine(sizes, records)?, "127.0.0.1:0").map_err(err)?;
    let addr = server.local_addr().to_string();
    let clients = (0..clients)
        .map(|_| NetClient::connect(&addr).map_err(err))
        .collect::<Result<_, _>>()?;
    Ok(System {
        clients,
        _server: server,
    })
}

/// What one load thread measured.
struct ThreadResult {
    all: Latencies,
    queries: Latencies,
    gets: Latencies,
    busy: Busy,
    attempted: u64,
    failed: u64,
    mismatches: Vec<String>,
    layers: Layers,
    tracer: Option<Tracer>,
    executed: usize,
    rss_mb: Option<f64>,
}

/// Runs `net_serve`.
///
/// # Errors
/// If set-up fails.
pub fn run(sizes: NetSizes, cfg: &RunConfig) -> Result<Outcome, String> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let records = model::distinct_records(sizes.side, sizes.records, &mut rng);
    let streams: Vec<Vec<EngineOp>> = client_streams::<2>(
        CLIENTS,
        sizes.side,
        sizes.stream,
        &OpMix::read_heavy(),
        ZIPF,
        MAX_QUERY_SIDE,
        cfg.seed,
    )
    .into_iter()
    .map(|s| s.into_iter().map(Op::from).collect())
    .collect();
    let build = |_| start(&sizes, &records, CLIENTS);
    let (mut system, first) = timed_setup(|| build(0))?;
    let origin = Instant::now();
    let windows = Windows::new(cfg.trace);
    let deadline = Instant::now() + cfg.duration();
    let results: Vec<ThreadResult> = std::thread::scope(|s| {
        let handles: Vec<_> = system
            .clients
            .iter_mut()
            .zip(&streams)
            .enumerate()
            .map(|(t, (client, stream))| {
                s.spawn(move || load(t, client, stream, windows, deadline, origin, sizes.rss_ops))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    drop(system);

    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let (mut all, mut queries, mut gets) = (
        Latencies::default(),
        Latencies::default(),
        Latencies::default(),
    );
    let mut busy = Busy::default();
    let mut rss = None;
    let mut layers = Layers::default();
    let mut tracers = Vec::new();
    let mut executed = usize::MAX;
    for r in results {
        all.merge(r.all);
        queries.merge(r.queries);
        gets.merge(r.gets);
        busy.merge(&r.busy);
        out.attempted += r.attempted;
        out.failed += r.failed;
        for m in r.mismatches {
            out.mismatch(m);
        }
        layers.request_bytes.merge(r.layers.request_bytes);
        layers.response_bytes.merge(r.layers.response_bytes);
        tracers.extend(r.tracer);
        executed = executed.min(r.executed);
        rss = rss.or(r.rss_mb);
    }
    layers.net_failed = out.failed;

    // Output check: the streams' prefixes, interleaved in a fixed order,
    // answer the same over the network as through an in-process client.
    let prefix = sizes.replay.min(executed).min(sizes.stream);
    let order: Vec<&EngineOp> = (0..prefix)
        .flat_map(|i| streams.iter().map(move |s| &s[i]))
        .collect();
    let mut replay_tracer = Tracer::new(origin);
    replay(
        &sizes,
        &records,
        &order,
        cfg.trace,
        &mut replay_tracer,
        &mut layers,
        &mut out,
    )?;
    out.notes.push(format!(
        "replayed {} ops over the network and in process",
        order.len()
    ));

    if cfg.trace {
        tracers.push(replay_tracer);
        let times = finish_trace(cfg, &tracers, &mut out);
        layers.report(&times, &busy, &mut out);
        return Ok(out);
    }
    out.throughput("ops", busy.ops_per_s(CLIENTS));
    out.latencies(&[
        ("op_p50_us", "op", &all),
        ("query_p50_us", "query", &queries),
        ("get_p50_us", "get", &gets),
    ]);
    finish_setup(cfg, &[first], rss, build, &mut out)?;
    Ok(out)
}

/// Whether `reply` has the shape `op` calls for.
fn plausible(op: &EngineOp, reply: &Reply<2, u64>) -> bool {
    match (op, reply) {
        (Op::Get(_), Reply::Value(_)) => true,
        (Op::Query(q), Reply::Records(rs)) => rs.iter().all(|r| q.contains(r.point)),
        (Op::Insert(..) | Op::Update(..) | Op::Delete(_), Reply::Admitted(_)) => true,
        _ => false,
    }
}

/// Latency samples each load thread has room for before its buffers grow.
/// Pages of the room are resident only once written.
const SAMPLE_ROOM: usize = 1 << 20;

/// One load thread: the closed loop of one connection, until the deadline
/// and at least `rss_ops` ops. The first thread reads the peak RSS after
/// `rss_ops` ops.
fn load(
    t: usize,
    client: &mut NetClient,
    stream: &[EngineOp],
    windows: Windows,
    deadline: Instant,
    origin: Instant,
    rss_ops: u64,
) -> ThreadResult {
    // Sized up front: buffers doubling while the other thread runs ahead
    // or behind would move the peak RSS read after `rss_ops` ops.
    let room = SAMPLE_ROOM.max(rss_ops as usize);
    let mut r = ThreadResult {
        all: Latencies::with_capacity(room),
        queries: Latencies::with_capacity(room),
        gets: Latencies::with_capacity(room),
        busy: Busy::default(),
        attempted: 0,
        failed: 0,
        mismatches: Vec::new(),
        layers: Layers::default(),
        tracer: None,
        executed: 0,
        rss_mb: None,
    };
    let mut rss = RssAt::new(rss_ops);
    let mut tracer = Tracer::new(origin);
    let mut buf = Vec::new();
    let mut i = 0usize;
    loop {
        if t == 0 {
            rss.tick(i as u64);
        }
        let t0 = Instant::now();
        if t0 >= deadline && rss.reached(i as u64) {
            break;
        }
        let op = &stream[i % stream.len()];
        let traced = windows.traced(t0);
        let id = ((t as u64) << 48) | i as u64;
        i += 1;
        r.attempted += 1;
        let reply = if traced {
            let root = tracer.begin("op", id, None);
            let reply = tracer.child("net.rtt", id, root, || client.execute(op.clone()));
            codec(&mut tracer, id, root, op, &reply, &mut buf, &mut r.layers);
            tracer.end(root);
            reply
        } else {
            client.execute(op.clone())
        };
        let ns = ns_since(t0);
        r.busy.add(traced, 1, ns);
        match reply {
            Ok(reply) => {
                if !traced {
                    r.all.push_ns(ns);
                    match op {
                        Op::Query(_) => r.queries.push_ns(ns),
                        Op::Get(_) => r.gets.push_ns(ns),
                        _ => {}
                    }
                }
                if !plausible(op, &reply) {
                    r.mismatches.push(format!("{op:?} answered {reply:?}"));
                }
            }
            Err(_) => r.failed += 1,
        }
    }
    r.executed = i;
    r.rss_mb = rss.mb;
    r.tracer = Some(tracer);
    r
}

/// Times the wire codec on one request and its response: encode and
/// decode of each, as the client and the server do.
fn codec(
    tracer: &mut Tracer,
    id: u64,
    root: SpanId,
    op: &EngineOp,
    reply: &Result<Reply<2, u64>, SfcError>,
    buf: &mut Vec<u8>,
    layers: &mut Layers,
) {
    let request = Request::from(op.clone());
    let response = match reply {
        Ok(r) => Response::from(r.clone()),
        Err(e) => Response::Error(e.clone()),
    };
    let (req_len, resp_len) = tracer.child("net.codec", id, root, || {
        buf.clear();
        request.encode(buf);
        let req_len = buf.len();
        let decoded = Request::<2, u64>::decode(&mut WalCursor::new(buf));
        std::hint::black_box(decoded);
        buf.clear();
        response.encode(buf);
        let resp_len = buf.len();
        let decoded = Response::<2, u64>::decode(&mut WalCursor::new(buf));
        std::hint::black_box(decoded);
        (req_len, resp_len)
    });
    layers.request_bytes.add(req_len as f64);
    layers.response_bytes.add(resp_len as f64);
}

fn encoded(r: &Result<Response<2, u64>, SfcError>) -> Vec<u8> {
    let mut buf = Vec::new();
    match r {
        Ok(resp) => resp.encode(&mut buf),
        Err(e) => Response::<2, u64>::Error(e.clone()).encode(&mut buf),
    }
    buf
}

/// Replays `order` on fresh engines over the network and through
/// [`Client::local`], and checks that the answers are byte-identical. A
/// traced run also times the in-process replay (`net.local`) and the same
/// ops executed on the engine directly (`engine.*`).
fn replay(
    sizes: &NetSizes,
    records: &[(Point<2>, u64)],
    order: &[&EngineOp],
    trace: bool,
    tracer: &mut Tracer,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut remote = start(sizes, records, 1)?;
    let mut local = NetClient::local(engine(sizes, records)?);
    let direct = engine(sizes, records)?;
    for (i, op) in order.iter().enumerate() {
        let request = || Request::from((*op).clone());
        let wire = remote.clients[0].request(request());
        let (here, direct_reply) = if trace {
            let id = (1u64 << 63) | i as u64;
            let root = tracer.begin("replay", id, None);
            let here = tracer.child("net.local", id, root, || local.request(request()));
            let name = match op {
                Op::Get(_) => "engine.get",
                Op::Query(_) => "engine.query",
                _ => {
                    layers.admitted += 1;
                    "engine.admit"
                }
            };
            let direct_reply = tracer.child(name, id, root, || direct.execute((*op).clone()));
            tracer.end(root);
            (here, Some(direct_reply.map(Response::from)))
        } else {
            (local.request(request()), None)
        };
        if encoded(&wire) != encoded(&here) {
            out.mismatch(format!("{op:?}: wire {wire:?}, local {here:?}"));
        }
        if direct_reply.is_some_and(|d| encoded(&d) != encoded(&here)) {
            out.mismatch(format!("{op:?}: engine and local client disagree"));
        }
    }
    remote.clients.clear();
    drop(remote);
    Ok(())
}
