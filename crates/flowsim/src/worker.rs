//! The link-simulation worker: a small TCP server any machine can run.
//!
//! One worker serves any number of coordinator connections (a thread
//! per connection). Per connection the protocol is strictly
//! request/reply except that a `RunLink` answer is a *stream* of
//! [`WorkerResponse::LinkChunk`] frames. Workers are stateless across
//! restarts; the only state is a cache of the last installed
//! [`WorkSpec`]'s decomposition, keyed by content fingerprint, shared
//! by all connections — reconnecting after a crash re-ships the spec
//! and rebuilds it.

use crate::decompose::Decomposition;
use crate::proto::{
    decode_request, encode_response, WorkSpec, WorkerRequest, WorkerResponse, CHUNK_FLOWS,
};
use iris_errors::{IrisError, IrisResult};
use iris_simnet::SimTopology;
use iris_wire::frame::{read_frame, write_frame, FrameEvent};
use iris_wire::Codec;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};

/// Worker tuning knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerConfig {
    /// Artificial per-job delay, ms — a test hook that widens the
    /// window for kill-mid-job fault injection (CI's kill-9 smoke).
    pub slow_ms: u64,
}

/// The decomposition built from the last installed spec, shared across
/// connections. It is generated in one streamed pass from the spec (the
/// trace's arrival list is never held), as `estimate` builds its own.
#[derive(Debug, Default)]
struct SpecCache {
    entry: Option<(u64, Arc<(SimTopology, Decomposition)>)>,
}

impl SpecCache {
    fn load(&mut self, spec: &WorkSpec) -> (Arc<(SimTopology, Decomposition)>, bool) {
        let fp = spec.fingerprint();
        if let Some((cached_fp, run)) = &self.entry {
            if *cached_fp == fp {
                return (Arc::clone(run), true);
            }
        }
        let run = Arc::new((spec.topo.clone(), Decomposition::generate(spec)));
        self.entry = Some((fp, Arc::clone(&run)));
        (run, false)
    }
}

/// Serve forever on `listener`. Each accepted connection gets its own
/// thread; the spec cache is shared.
///
/// # Errors
///
/// Returns an error only if `accept` itself fails fatally.
pub fn serve(listener: TcpListener, cfg: WorkerConfig) -> IrisResult<()> {
    let cache = Arc::new(Mutex::new(SpecCache::default()));
    loop {
        let (stream, peer) = listener.accept().map_err(|e| IrisError::Io {
            detail: format!("flowsim worker accept: {e}"),
        })?;
        let cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            if let Err(e) = serve_connection(stream, &cache, cfg) {
                eprintln!("flowsim worker: connection {peer}: [{}] {e}", e.code());
            }
        });
    }
}

/// Bind `127.0.0.1:0`, spawn a detached serving thread, and return the
/// bound address — the in-test worker entry point.
///
/// # Errors
///
/// Returns an error if the bind fails.
pub fn spawn_ephemeral(cfg: WorkerConfig) -> IrisResult<SocketAddr> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| IrisError::Io {
        detail: format!("flowsim worker bind: {e}"),
    })?;
    let addr = listener.local_addr().map_err(|e| IrisError::Io {
        detail: format!("flowsim worker local_addr: {e}"),
    })?;
    std::thread::spawn(move || {
        let _ = serve(listener, cfg);
    });
    Ok(addr)
}

fn serve_connection(
    mut stream: TcpStream,
    cache: &Mutex<SpecCache>,
    cfg: WorkerConfig,
) -> IrisResult<()> {
    let telemetry = iris_telemetry::global();
    let mut codec = Codec::Json;
    let mut run: Option<Arc<(SimTopology, Decomposition)>> = None;
    loop {
        let payload = match read_frame(&mut stream)? {
            FrameEvent::Frame(p) => p,
            FrameEvent::Eof | FrameEvent::Idle => return Ok(()),
        };
        let request = match decode_request(codec, &payload) {
            Ok(r) => r,
            Err(error) => {
                // Frame boundaries survived; answer typed and continue.
                reply(&mut stream, codec, &WorkerResponse::Error { error })?;
                continue;
            }
        };
        match request {
            WorkerRequest::Hello { codec: name } => match Codec::from_name(&name) {
                Some(next) => {
                    // Ack in the *old* codec, then switch — mirror of
                    // the service's negotiation.
                    reply(&mut stream, codec, &WorkerResponse::HelloOk { codec: name })?;
                    codec = next;
                }
                None => reply(
                    &mut stream,
                    codec,
                    &WorkerResponse::Error {
                        error: IrisError::InvalidInput {
                            detail: format!("unknown codec '{name}'"),
                        },
                    },
                )?,
            },
            WorkerRequest::LoadSpec { spec } => {
                let (installed, cache_hit) = cache.lock().expect("cache lock").load(&spec);
                telemetry
                    .counter("iris_flowsim_worker_spec_loads_total")
                    .add(1);
                if cache_hit {
                    telemetry
                        .counter("iris_flowsim_worker_spec_cache_hits_total")
                        .add(1);
                }
                let resp = WorkerResponse::SpecLoaded {
                    flows: installed.1.flows.len(),
                    links: installed.1.occupied_links().len(),
                };
                run = Some(installed);
                reply(&mut stream, codec, &resp)?;
            }
            WorkerRequest::RunLink { link } => {
                let Some(run) = run.as_ref() else {
                    reply(
                        &mut stream,
                        codec,
                        &WorkerResponse::Error {
                            error: IrisError::InvalidInput {
                                detail: "RunLink before LoadSpec".to_owned(),
                            },
                        },
                    )?;
                    continue;
                };
                let (topo, dec) = run.as_ref();
                if link >= dec.link_flows.len() {
                    reply(
                        &mut stream,
                        codec,
                        &WorkerResponse::Error {
                            error: IrisError::InvalidInput {
                                detail: format!(
                                    "link {link} out of range ({} links)",
                                    dec.link_flows.len()
                                ),
                            },
                        },
                    )?;
                    continue;
                }
                if cfg.slow_ms > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(cfg.slow_ms));
                }
                let finishes = dec.simulate(topo, link);
                telemetry.counter("iris_flowsim_worker_jobs_total").add(1);
                stream_chunks(&mut stream, codec, link, &finishes)?;
            }
        }
    }
}

/// Stream a link result as `LinkChunk` frames (always at least one, so
/// an empty link still yields a `done` frame).
fn stream_chunks(
    stream: &mut TcpStream,
    codec: Codec,
    link: usize,
    finishes: &[f64],
) -> IrisResult<()> {
    let mut offset = 0;
    loop {
        let end = (offset + CHUNK_FLOWS).min(finishes.len());
        let done = end == finishes.len();
        reply(
            stream,
            codec,
            &WorkerResponse::LinkChunk {
                link,
                offset,
                finish_s: finishes[offset..end].to_vec(),
                done,
            },
        )?;
        if done {
            return Ok(());
        }
        offset = end;
    }
}

fn reply(stream: &mut TcpStream, codec: Codec, resp: &WorkerResponse) -> IrisResult<()> {
    write_frame(stream, &encode_response(codec, resp)?)
}
