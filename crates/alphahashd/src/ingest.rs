//! The daemon's batching ingest pipeline: connection handlers hand raw
//! encoded term runs to a small pool of accumulator workers over bounded
//! channels; each worker coalesces jobs under a size/latency watermark
//! and feeds the store one [`try_insert_batch`] per flush.
//!
//! This is how many small clients get batched-ingest throughput: a
//! client sending one term per request still rides a multi-hundred-term
//! `insert_batch` call on the store side, amortizing the prepare pass
//! and shard-lock acquisitions across everything that arrived within
//! the linger window.
//!
//! Backpressure is structural: the per-worker queues are bounded
//! `sync_channel`s, so when the store falls behind, handler submits
//! block, handlers stop reading their sockets, and TCP pushes back on
//! the clients — no unbounded buffering anywhere in the path.
//!
//! [`try_insert_batch`]: alpha_store::AlphaStore::try_insert_batch

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alpha_hash::HashWord;
use alpha_store::AlphaStore;
use lambda_lang::ExprArena;

use crate::server::DaemonConfig;
use crate::wire::{self, RemoteOutcome};

/// One unit of ingest work: `count` terms, encoded back-to-back with
/// [`wire::put_term`], plus the channel the outcome goes back on.
pub(crate) struct Job {
    /// `count` encoded terms, concatenated.
    pub(crate) terms: Vec<u8>,
    /// How many terms `terms` holds.
    pub(crate) count: u32,
    /// Where the handler waits for this job's outcome. Capacity 1, so
    /// a worker's reply send never blocks.
    pub(crate) reply: SyncSender<Reply>,
}

/// What a worker sends back for one [`Job`].
pub(crate) enum Reply {
    /// The job's terms were ingested; one outcome per term, in order.
    Outcomes(Vec<RemoteOutcome>),
    /// The job failed as a unit: a term failed to decode, or the store
    /// refused the flush. The wire code and message to forward.
    Refused {
        /// Stable wire error code (`ERR_TERM`, `ERR_READ_ONLY`, …).
        code: u8,
        /// Human-readable description for the client.
        message: String,
    },
}

/// The handler-facing side of the pipeline: submit jobs round-robin
/// until [`IngestPool::close`] drains the workers.
pub(crate) struct IngestPool {
    /// `None` once the pool is closed; workers observe the hangup when
    /// every sender clone is gone.
    senders: RwLock<Option<Vec<SyncSender<Job>>>>,
    next: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Bounded depth of each worker's job queue: the backpressure point for
/// ingest.
const QUEUE_DEPTH: usize = 64;

impl IngestPool {
    /// Spawns `config.ingest_workers` accumulator threads over `store`.
    pub(crate) fn spawn<H: HashWord>(
        store: Arc<AlphaStore<H>>,
        config: &DaemonConfig,
    ) -> Arc<IngestPool> {
        let workers = config.ingest_workers.max(1);
        let flush_terms = config.flush_terms.max(1);
        let linger = config.linger;
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let (tx, rx) = sync_channel::<Job>(QUEUE_DEPTH);
            let store = Arc::clone(&store);
            let handle = std::thread::Builder::new()
                .name(format!("alphahashd-ingest-{i}"))
                .spawn(move || worker_loop(&store, &rx, flush_terms, linger))
                .expect("spawn ingest worker");
            senders.push(tx);
            handles.push(handle);
        }
        Arc::new(IngestPool {
            senders: RwLock::new(Some(senders)),
            next: AtomicUsize::new(0),
            workers: Mutex::new(handles),
        })
    }

    /// Submits one job to the next worker round-robin, blocking when
    /// that worker's queue is full (this is the backpressure point).
    /// `Err` means the pool is already draining for shutdown.
    pub(crate) fn submit(&self, job: Job) -> Result<(), Job> {
        // Clone the target sender out of the lock so a blocking send
        // never holds the lock against other handlers (or close()).
        let sender = {
            let guard = self.senders.read().expect("ingest senders lock");
            match guard.as_ref() {
                None => return Err(job),
                Some(senders) => {
                    let i = self.next.fetch_add(1, Ordering::Relaxed) % senders.len();
                    senders[i].clone()
                }
            }
        };
        sender.send(job).map_err(|e| e.0)
    }

    /// Stops accepting jobs, lets the workers drain everything already
    /// queued, and joins them. Idempotent.
    pub(crate) fn close(&self) {
        // Dropping the senders hangs up the channels; each worker loop
        // exits once its queue is empty AND hung up, so nothing queued
        // is lost.
        self.senders.write().expect("ingest senders lock").take();
        let workers = std::mem::take(&mut *self.workers.lock().expect("ingest workers lock"));
        for handle in workers {
            let _ = handle.join();
        }
    }
}

/// One accumulator worker: block for a first job, then keep absorbing
/// jobs until the flush watermark (`flush_terms`) or the linger
/// deadline, then ingest the accumulated run as one store batch.
fn worker_loop<H: HashWord>(
    store: &AlphaStore<H>,
    rx: &Receiver<Job>,
    flush_terms: usize,
    linger: Duration,
) {
    loop {
        let first = match rx.recv() {
            Ok(job) => job,
            // Hangup with an empty queue: drain complete.
            Err(_) => return,
        };
        let mut jobs = vec![first];
        let mut total = jobs[0].count as usize;
        let deadline = Instant::now() + linger;
        while total < flush_terms {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match rx.recv_timeout(deadline - now) {
                Ok(job) => {
                    total += job.count as usize;
                    jobs.push(job);
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        }
        flush(store, jobs);
    }
}

/// Decodes every job's terms into one arena and ingests them as one
/// `try_insert_batch`, then distributes per-job outcome slices (or the
/// typed error) back to the waiting handlers.
fn flush<H: HashWord>(store: &AlphaStore<H>, jobs: Vec<Job>) {
    let mut arena = ExprArena::new();
    let mut roots = Vec::new();
    // (job, start index into roots) for jobs that decoded cleanly.
    let mut decoded: Vec<(Job, usize)> = Vec::with_capacity(jobs.len());
    for job in jobs {
        let start = roots.len();
        let mut input = job.terms.as_slice();
        let damage = match wire::take_terms(&mut input, job.count, &mut arena, &mut roots) {
            Err(e) => format!("term failed to decode: {e}"),
            Ok(()) if !input.is_empty() => {
                format!("{} trailing bytes after the last term", input.len())
            }
            Ok(()) => {
                decoded.push((job, start));
                continue;
            }
        };
        // The job's encoded run is damaged: refuse the whole job and drop
        // whatever it half-decoded from the batch (the arena keeps the
        // orphan nodes; they are never used as roots).
        roots.truncate(start);
        let _ = job.reply.try_send(Reply::Refused {
            code: wire::ERR_TERM,
            message: damage,
        });
    }
    // A flush of zero-count jobs only is no special case: the store
    // ingests nothing and each job gets its empty outcome slice.
    match store.try_insert_batch(&arena, &roots) {
        Ok(outcomes) => {
            for (job, start) in decoded {
                let slice = &outcomes[start..start + job.count as usize];
                let _ = job.reply.try_send(Reply::Outcomes(
                    slice.iter().map(RemoteOutcome::from).collect(),
                ));
            }
        }
        Err(e) => {
            // Chunk-atomic failure inside the store: some prefix of the
            // flush may be applied (memory and WAL agree on it), the
            // rest was not. Every job in the flush gets the typed error;
            // clients treat the batch as failed and may retry once the
            // store heals — re-inserting an already-applied term is
            // idempotent at the class level by construction.
            let code = wire::store_error_code(&e);
            let message = e.to_string();
            for (job, _) in decoded {
                let _ = job.reply.try_send(Reply::Refused {
                    code,
                    message: message.clone(),
                });
            }
        }
    }
}
