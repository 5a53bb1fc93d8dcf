//! `serve_mix`: an in-process run server behind its real TCP listener on
//! loopback, driven closed-loop by the benchmark's client connections.

use crate::decompose::Stages;
use crate::spans::Recorder;
use crate::workload::{self, CLIENTS, GRIDS, MAX_STEPS, WARMUP_GRID, WORKERS};
use advect_core::flops::total_flops;
use advect_core::stepper::{AdvectionProblem, SerialStepper};
use overlap::{Impl, RunKey, RunLimits};
use serve::artifact::state_checksum;
use serve::protocol::render_request;
use serve::{ReqEvent, Server, ServerConfig, ServerStats, Stage};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The span operation id of request `seq` of client `client`, apart
/// from run ids.
pub fn request_op(client: usize, seq: u64) -> u64 {
    1 << 40 | (client as u64) << 32 | seq
}

/// Serial-stepper checksums of every (grid, steps) the stream can ask for.
pub struct StreamOracle {
    /// `(grid, steps)` → checksum.
    pub checksums: HashMap<(u32, u32), u64>,
    /// Total oracle time, seconds.
    pub seconds: f64,
}

/// Step each stream grid serially to [`MAX_STEPS`], recording the
/// checksum after every step.
pub fn oracle(rec: &Recorder) -> StreamOracle {
    let root = rec.span("bench.oracle", 0, 0);
    let t = Instant::now();
    let mut checksums = HashMap::new();
    for grid in GRIDS.into_iter().chain([WARMUP_GRID]) {
        let mut stepper = SerialStepper::new(AdvectionProblem::general_case(grid as usize));
        for steps in 1..=MAX_STEPS {
            {
                let _step = rec.span("advect-core.serial_step", root.id(), 0);
                stepper.step();
            }
            checksums.insert((grid, steps), state_checksum(stepper.state()));
        }
    }
    StreamOracle {
        checksums,
        seconds: t.elapsed().as_secs_f64(),
    }
}

/// One line-delimited JSON connection.
struct Client(BufReader<TcpStream>);

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client(BufReader::new(stream)))
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let stream = self.0.get_mut();
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        let mut response = String::new();
        if self.0.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        response.truncate(response.trim_end().len());
        Ok(response)
    }
}

/// A running server, its listener thread and the client connections.
pub struct Harness {
    /// The in-process server.
    pub server: Arc<Server>,
    /// Recorder clock at server start: the offset of the server's event
    /// clock on the benchmark's span clock.
    pub anchor_ns: u64,
    addr: SocketAddr,
    listener: JoinHandle<std::io::Result<()>>,
    clients: Vec<Client>,
}

impl Harness {
    /// Start a server with [`WORKERS`] workers (its recorder ring sized
    /// to keep every event when `keep_events`) and bind its TCP front end
    /// on an ephemeral loopback port.
    pub fn start(keep_events: bool, rec: &Recorder) -> Result<Harness, String> {
        let mut cfg = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        if keep_events {
            cfg.recorder_capacity = 1 << 18;
        }
        let anchor_ns = rec.now_ns();
        let server = Server::start(cfg);
        let (tx, rx) = mpsc::channel();
        let for_listener = Arc::clone(&server);
        let listener = std::thread::spawn(move || {
            serve::tcp::serve(for_listener, "127.0.0.1:0", |addr| {
                let _ = tx.send(addr);
            })
        });
        match rx.recv() {
            Ok(addr) => Ok(Harness {
                server,
                anchor_ns,
                addr,
                listener,
                clients: Vec::new(),
            }),
            Err(_) => {
                let err = match listener.join() {
                    Ok(Err(e)) => e.to_string(),
                    _ => "listener exited before binding".to_string(),
                };
                server.shutdown();
                Err(format!("bind 127.0.0.1:0: {err}"))
            }
        }
    }

    /// One untimed run per implementation.
    pub fn warm_up(&self) -> Result<(), String> {
        for im in Impl::ALL {
            self.server
                .run(&workload::warmup_request(im))
                .map_err(|e| format!("warm-up {}: {e}", im.slug()))?;
        }
        Ok(())
    }

    /// Connect [`CLIENTS`] clients and ping over each, so the listener
    /// has accepted every connection before the first timed request.
    pub fn connect(&mut self) -> Result<(), String> {
        while self.clients.len() < CLIENTS {
            let mut c =
                Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
            let pong = c
                .roundtrip("{\"cmd\":\"ping\"}")
                .map_err(|e| format!("ping: {e}"))?;
            if !pong.contains("\"pong\":true") {
                return Err(format!("ping answered {pong}"));
            }
            self.clients.push(c);
        }
        Ok(())
    }

    /// Shut the server down over the wire and join the listener, which
    /// joins its connection threads and the workers.
    pub fn stop(mut self) -> Result<(), String> {
        if self.clients.is_empty() {
            let c =
                Client::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
            self.clients.push(c);
        }
        let reply = self.clients[0].roundtrip("{\"cmd\":\"shutdown\"}");
        drop(self.clients);
        let joined = self.listener.join();
        reply.map_err(|e| format!("shutdown: {e}"))?;
        match joined {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("listener: {e}")),
            Err(_) => Err("listener thread panicked".to_string()),
        }
    }
}

/// One set-up: start the server, bind its listener and warm it up. Returns
/// the seconds it took and the running harness, whose clients connect
/// afterwards (the listener polls for connections, so connecting inside
/// the timed set-up would time its poll interval).
pub fn setup(keep_events: bool, rec: &Recorder) -> Result<(f64, Harness), String> {
    let _span = rec.span("bench.setup", 0, 0);
    let t = Instant::now();
    let h = Harness::start(keep_events, rec)?;
    h.warm_up()?;
    Ok((t.elapsed().as_secs_f64(), h))
}

/// One request as the client saw it.
#[derive(Debug, Clone)]
pub struct Req {
    /// Client connection.
    pub client: usize,
    /// Sequence number within the client's stream.
    pub seq: u64,
    /// Send time on the recorder clock, ns.
    pub start_ns: u64,
    /// Receive time on the recorder clock, ns.
    pub end_ns: u64,
    /// Answered from the cache.
    pub cached: bool,
    /// Table-I flops of the run the artifact describes.
    pub flops: f64,
    /// Why the request failed, if it did.
    pub failure: Option<String>,
}

impl Req {
    /// Round trip, ms.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Check one response: an ok status, the oracle's checksum, the
/// requested trace/metrics artifacts, and byte-identical artifacts for
/// every repeat of a key whose artifact is deterministic (no trace or
/// metrics, which carry wall-clock values). Returns whether it was a
/// cache hit.
fn verify(
    resp: &str,
    key: &RunKey,
    oracle: &StreamOracle,
    seen: &Mutex<HashMap<RunKey, String>>,
) -> Result<bool, String> {
    let rest = resp
        .strip_prefix("{\"status\":\"ok\",\"cached\":")
        .ok_or_else(|| format!("error response: {resp}"))?;
    let (cached, rest) = if let Some(r) = rest.strip_prefix("true,\"artifact\":") {
        (true, r)
    } else if let Some(r) = rest.strip_prefix("false,\"artifact\":") {
        (false, r)
    } else {
        return Err(format!("malformed response: {resp}"));
    };
    let artifact = rest
        .strip_suffix('}')
        .ok_or_else(|| "unterminated response".to_string())?;
    let at = artifact
        .find("\"checksum\":\"")
        .ok_or_else(|| "artifact has no checksum".to_string())?
        + "\"checksum\":\"".len();
    let got = artifact
        .get(at..at + 16)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| "unreadable checksum".to_string())?;
    let want = oracle.checksums[&(key.grid(), key.steps())];
    if got != want {
        return Err(format!(
            "{}: checksum {got:016x} != oracle {want:016x}",
            key.tag()
        ));
    }
    if key.trace() && !artifact.contains(",\"trace\":") {
        return Err(format!("{}: trace artifact missing", key.tag()));
    }
    if key.metrics() && !artifact.contains(",\"metrics_prometheus\":\"") {
        return Err(format!("{}: metrics artifact missing", key.tag()));
    }
    if !key.trace() && !key.metrics() {
        let mut seen = seen.lock().expect("identity map poisoned");
        let first = seen
            .entry(key.clone())
            .or_insert_with(|| artifact.to_string());
        if first != artifact {
            return Err(format!(
                "{}: repeated key returned different bytes",
                key.tag()
            ));
        }
    }
    Ok(cached)
}

/// Drive the stream closed-loop from every client until `seconds` have
/// passed. Returns every request and the server's counters over the
/// stream (set-up excluded).
pub fn drive(
    h: &mut Harness,
    seed: u64,
    seconds: f64,
    oracle: &StreamOracle,
    rec: &Recorder,
) -> (Vec<Req>, ServerStats) {
    let before = h.server.stats();
    let limits = RunLimits::default();
    let seen = Mutex::new(HashMap::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let reqs = std::thread::scope(|scope| {
        let threads: Vec<_> = h
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let seen = &seen;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for seq in 0.. {
                        if Instant::now() >= deadline {
                            break;
                        }
                        let req = workload::request(seed, c, seq);
                        let line = render_request(&req);
                        let key = req
                            .params
                            .canonicalize(&limits)
                            .expect("the stream generates only valid requests");
                        let span = rec.span("serve.request", 0, request_op(c, seq));
                        let start_ns = rec.now_ns();
                        let resp = client.roundtrip(&line);
                        let end_ns = rec.now_ns();
                        drop(span);
                        let (cached, failure, broken) = match resp {
                            Ok(resp) => match verify(&resp, &key, oracle, seen) {
                                Ok(cached) => (cached, None, false),
                                Err(e) => (false, Some(e), false),
                            },
                            Err(e) => (false, Some(format!("connection: {e}")), true),
                        };
                        out.push(Req {
                            client: c,
                            seq,
                            start_ns,
                            end_ns,
                            cached,
                            flops: total_flops(u64::from(key.grid()).pow(3), u64::from(key.steps()))
                                as f64,
                            failure,
                        });
                        if broken {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread panicked"))
            .collect::<Vec<Req>>()
    });
    let after = h.server.stats();
    let stats = ServerStats {
        requests: after.requests - before.requests,
        cache_hits: after.cache_hits - before.cache_hits,
        dedup_joins: after.dedup_joins - before.dedup_joins,
        executions: after.executions - before.executions,
        rejects: after.rejects - before.rejects,
        timeouts: after.timeouts - before.timeouts,
    };
    (reqs, stats)
}

/// A client request matched to the server's events for it.
pub struct Matched {
    /// The client's record.
    pub req: Req,
    /// Its decomposition.
    pub stages: Stages,
    /// Whether it started an execution (not a cache hit or dedup join).
    pub executed: bool,
    /// The server's stage spans, `(stage, start, end)` on the server's
    /// event clock.
    pub spans: Vec<(Stage, u64, u64)>,
}

/// The server stages of every stream request, matched to the client's
/// records: a client's requests reach the server in order on its own
/// connection, so the k-th admitted request of tenant `c<i>` is client
/// i's k-th request. Unmatched requests are left out.
pub fn stages(events: &[ReqEvent], reqs: &[Req]) -> Vec<Matched> {
    let mut by_id: BTreeMap<u64, Vec<&ReqEvent>> = BTreeMap::new();
    for e in events {
        by_id.entry(e.id).or_default().push(e);
    }
    let mut out = Vec::new();
    for c in 0..CLIENTS {
        let tenant = serve::reqtrace::tenant_hash(&format!("c{c}"));
        let mut admitted: Vec<(u64, &Vec<&ReqEvent>)> = by_id
            .values()
            .filter(|evs| evs[0].tenant == tenant)
            .filter_map(|evs| {
                evs.iter()
                    .find(|e| matches!(e.stage, Stage::Accepted | Stage::Rejected))
                    .map(|e| (e.start_ns, evs))
            })
            .collect();
        admitted.sort_by_key(|(t, _)| *t);
        let mut mine: Vec<&Req> = reqs.iter().filter(|r| r.client == c).collect();
        mine.sort_by_key(|r| r.seq);
        for (req, (_, evs)) in mine.into_iter().zip(admitted) {
            let dur = |stage: Stage| {
                evs.iter()
                    .filter(|e| e.stage == stage)
                    .map(|e| (e.end_ns - e.start_ns) as f64)
                    .sum::<f64>()
            };
            let at = |stage: Stage| evs.iter().find(|e| e.stage == stage).map(|e| e.start_ns);
            let joined = match (at(Stage::DedupJoin), at(Stage::Responded)) {
                (Some(j), Some(r)) => r.saturating_sub(j) as f64,
                _ => 0.0,
            };
            let st = Stages {
                accept: dur(Stage::Accepted),
                queue: dur(Stage::Queued),
                execute: dur(Stage::Executing) + joined,
                render: dur(Stage::Rendered),
                total: (req.end_ns - req.start_ns) as f64,
            };
            let spans = evs
                .iter()
                .filter(|e| e.end_ns > e.start_ns)
                .map(|e| (e.stage, e.start_ns, e.end_ns))
                .collect();
            out.push(Matched {
                req: req.clone(),
                stages: st,
                executed: at(Stage::Executing).is_some(),
                spans,
            });
        }
    }
    out
}
