//! Admission control and batched dispatch for inference requests.
//!
//! Every HTTP connection thread funnels `/infer` and `/infer_batch` work
//! through one [`InferService`]: a **bounded** queue of [`InferJob`]s
//! drained by dispatcher workers. The bound is the backpressure contract —
//! [`InferService::try_submit`] refuses instead of buffering without
//! limit, and the front end turns the refusal into `429` + `Retry-After`.
//! Deadlines are checked when a job reaches a dispatcher: a request that
//! waited past its budget is answered `504` without burning a fold-in on an
//! answer nobody is waiting for.
//!
//! Dispatchers drain greedily: whatever is queued when a worker wakes is
//! coalesced (up to [`DispatchOptions::max_batch`] documents) into one
//! batch, and one [`try_infer_docs_amortized`] call folds the whole batch
//! in, so concurrent single-document requests share a φ gather exactly
//! like an explicit `/infer_batch` body does. Seeds per document are
//! unchanged from the sequential path — batching alters *when* work runs,
//! never what it computes.
//!
//! Shutdown is a graceful drain: dropping the service closes the queue
//! (new submissions fail), wakes every worker, and joins them after they
//! finish all remaining queued jobs.

use crate::backend::ModelBackend;
use crate::http::{batch_inference_json, error_json, inference_json};
use crate::infer::{try_infer_docs_amortized, BatchItem, InferConfig};
use crate::metrics::serve_metrics;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// How a job's documents map back onto a response body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobKind {
    /// One `/infer` document; responds with the bare inference JSON and
    /// draws the config seed (`seed_for_index(0)`).
    Single,
    /// An `/infer_batch` body; responds with the batch wrapper and draws
    /// `seed_for_index(i)` for document `i`.
    Batch,
}

/// One admitted request, parked in the queue until a dispatcher takes it.
pub(crate) struct InferJob {
    pub docs: Vec<String>,
    pub config: InferConfig,
    pub kind: JobKind,
    /// Expiry instant; a job still queued past this is answered 504.
    pub deadline: Option<Instant>,
    /// Completion callback, invoked exactly once with `(status, body)` —
    /// from a dispatcher thread, or from the submitter on rejection.
    pub respond: Box<dyn FnOnce(u16, String) + Send + 'static>,
}

/// Dispatch tuning, mirrored from `ServerConfig`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DispatchOptions {
    pub queue_depth: usize,
    pub max_batch: usize,
    pub n_workers: usize,
}

struct QueueState {
    jobs: VecDeque<InferJob>,
    closed: bool,
}

type SharedQueue = Arc<(Mutex<QueueState>, Condvar)>;

/// The shared admission queue and the dispatcher workers that drain it.
pub(crate) struct InferService {
    queue: SharedQueue,
    queue_depth: usize,
    workers: Vec<JoinHandle<()>>,
}

impl InferService {
    pub fn start(model: Arc<dyn ModelBackend>, options: DispatchOptions) -> Self {
        let queue: SharedQueue = Arc::new((
            Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            Condvar::new(),
        ));
        let max_batch = options.max_batch.max(1);
        let workers = (0..options.n_workers.max(1))
            .map(|i| {
                let queue = Arc::clone(&queue);
                let model = Arc::clone(&model);
                std::thread::Builder::new()
                    .name(format!("topmine-dispatch-{i}"))
                    .spawn(move || worker_loop(model.as_ref(), &queue, max_batch))
                    .expect("failed to spawn dispatcher thread")
            })
            .collect();
        Self {
            queue,
            queue_depth: options.queue_depth.max(1),
            workers,
        }
    }

    /// Admit a job, or hand it back when the queue is at capacity (or the
    /// service is shutting down) — the caller owns the rejection response,
    /// so the `respond` callback is still unused on `Err`.
    pub fn try_submit(&self, job: InferJob) -> Result<(), InferJob> {
        let (lock, cv) = &*self.queue;
        let mut state = lock.lock().expect("admission queue poisoned");
        if state.closed || state.jobs.len() >= self.queue_depth {
            return Err(job);
        }
        state.jobs.push_back(job);
        serve_metrics()
            .admission_queue_depth
            .set(state.jobs.len() as f64);
        cv.notify_one();
        Ok(())
    }
}

impl Drop for InferService {
    fn drop(&mut self) {
        {
            let (lock, cv) = &*self.queue;
            lock.lock().expect("admission queue poisoned").closed = true;
            cv.notify_all();
        }
        // Workers drain everything still queued before exiting, so every
        // admitted job gets its promised response.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(model: &dyn ModelBackend, queue: &SharedQueue, max_batch: usize) {
    loop {
        let batch = {
            let (lock, cv) = &**queue;
            let mut state = lock.lock().expect("admission queue poisoned");
            loop {
                if !state.jobs.is_empty() {
                    break;
                }
                if state.closed {
                    return;
                }
                state = cv.wait(state).expect("admission queue poisoned");
            }
            // Greedy coalesce: take queued jobs until the next would push
            // the batch past `max_batch` documents. The first job always
            // dispatches, whatever its size — an oversized `/infer_batch`
            // must make progress, it just batches alone.
            let mut batch: Vec<InferJob> = Vec::new();
            let mut docs = 0usize;
            while let Some(job) = state.jobs.front() {
                if !batch.is_empty() && docs + job.docs.len() > max_batch {
                    break;
                }
                docs += job.docs.len();
                batch.push(state.jobs.pop_front().expect("front() was Some"));
            }
            serve_metrics()
                .admission_queue_depth
                .set(state.jobs.len() as f64);
            batch
        };
        dispatch_batch(model, batch);
    }
}

/// Run one coalesced batch: expire overdue jobs, fold in the rest with a
/// shared φ gather, and fan the results back out to each job's responder.
fn dispatch_batch(model: &dyn ModelBackend, batch: Vec<InferJob>) {
    let metrics = serve_metrics();
    let now = Instant::now();
    let mut live: Vec<InferJob> = Vec::with_capacity(batch.len());
    for job in batch {
        match job.deadline {
            Some(deadline) if now > deadline => {
                metrics.requests_expired_total.inc();
                (job.respond)(504, error_json("deadline expired before dispatch"));
            }
            _ => live.push(job),
        }
    }
    if live.is_empty() {
        return;
    }

    let mut items: Vec<BatchItem> = Vec::new();
    for job in &live {
        for (i, doc) in job.docs.iter().enumerate() {
            // Single jobs use index 0 (== the config seed); batch jobs
            // number their own documents — identical to running each job
            // by itself.
            items.push(BatchItem {
                text: doc.clone(),
                config: job.config.clone(),
                seed: job.config.seed_for_index(i),
            });
        }
    }
    metrics.dispatch_batch_docs.record(items.len() as u64);
    // Deadline propagation into the shared gather: the batch's RPCs are
    // bounded by the *latest* live deadline (any job without one leaves
    // the gather bounded only by the backend's per-RPC timeout — a
    // tighter clamp would let one impatient request fail patient ones).
    let gather_deadline = if live.iter().all(|j| j.deadline.is_some()) {
        live.iter().filter_map(|j| j.deadline).max()
    } else {
        None
    };
    let results = match try_infer_docs_amortized(model, &items, gather_deadline) {
        Ok(results) => results,
        Err(e) => {
            // A shard failure fails every job of the batch the same way —
            // the gather was shared, so there is no per-document blame.
            let status = e.http_status();
            let body = error_json(&e.to_string());
            for job in live {
                (job.respond)(status, body.clone());
            }
            return;
        }
    };

    let mut offset = 0;
    for job in live {
        let n = job.docs.len();
        let body = match job.kind {
            JobKind::Single => inference_json(&results[offset]),
            JobKind::Batch => batch_inference_json(&results[offset..offset + n]),
        };
        offset += n;
        (job.respond)(200, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;
    use crate::infer::infer_doc;
    use std::sync::mpsc::channel;

    fn service(queue_depth: usize, max_batch: usize, n_workers: usize) -> InferService {
        InferService::start(
            Arc::new(tiny_model()),
            DispatchOptions {
                queue_depth,
                max_batch,
                n_workers,
            },
        )
    }

    fn job(text: &str, kind: JobKind, tx: std::sync::mpsc::Sender<(u16, String)>) -> InferJob {
        seeded_job(text, kind, InferConfig::default(), tx)
    }

    fn seeded_job(
        text: &str,
        kind: JobKind,
        config: InferConfig,
        tx: std::sync::mpsc::Sender<(u16, String)>,
    ) -> InferJob {
        InferJob {
            docs: match kind {
                JobKind::Single => vec![text.to_string()],
                JobKind::Batch => text.lines().map(str::to_string).collect(),
            },
            config,
            kind,
            deadline: None,
            respond: Box::new(move |status, body| {
                let _ = tx.send((status, body));
            }),
        }
    }

    #[test]
    fn dispatched_singles_match_the_direct_engine_path() {
        let svc = service(16, 8, 2);
        let cfg = InferConfig::default();
        let (tx, rx) = channel();
        svc.try_submit(job("support vector machines", JobKind::Single, tx))
            .unwrap_or_else(|_| panic!("submit refused"));
        let (status, body) = rx.recv().unwrap();
        assert_eq!(status, 200);
        let direct = infer_doc(&tiny_model(), "support vector machines", &cfg, cfg.seed);
        assert_eq!(body, inference_json(&direct));
    }

    /// Submit one job and wait for its `(status, body)`.
    fn answer(svc: &InferService, text: &str, kind: JobKind, seed: u64) -> (u16, String) {
        let (tx, rx) = channel();
        let config = InferConfig {
            seed,
            ..InferConfig::default()
        };
        svc.try_submit(seeded_job(text, kind, config, tx))
            .unwrap_or_else(|_| panic!("submit refused"));
        rx.recv().unwrap()
    }

    #[test]
    fn repeated_queries_give_identical_results() {
        let svc = service(16, 8, 1);
        let first = answer(&svc, "support vector machines", JobKind::Single, 1);
        let second = answer(&svc, "support vector machines", JobKind::Single, 1);
        assert_eq!(first, second);
        // Document 0 of a batch draws the config seed, so it folds in to
        // the single query's result.
        let (status, body) = answer(
            &svc,
            "support vector machines\nmining frequent patterns",
            JobKind::Batch,
            1,
        );
        assert_eq!(status, 200);
        assert!(body.contains(&first.1), "{body}");
    }

    #[test]
    fn batch_jobs_respond_with_the_batch_wrapper() {
        let svc = service(16, 8, 1);
        let (tx, rx) = channel();
        svc.try_submit(job(
            "support vector machines\nmining frequent patterns",
            JobKind::Batch,
            tx,
        ))
        .unwrap_or_else(|_| panic!("submit refused"));
        let (status, body) = rx.recv().unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"batch_size\":2,\"results\":["));
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let svc = service(64, 4, 1);
        let mut receivers = Vec::new();
        for i in 0..16 {
            let (tx, rx) = channel();
            svc.try_submit(job(&format!("data streams {i}"), JobKind::Single, tx))
                .unwrap_or_else(|_| panic!("submit refused"));
            receivers.push(rx);
        }
        drop(svc); // graceful drain: every admitted job still answers
        for rx in receivers {
            assert_eq!(rx.recv().unwrap().0, 200);
        }
    }

    #[test]
    fn already_expired_jobs_get_504() {
        let svc = service(16, 8, 1);
        let (tx, rx) = channel();
        let mut j = job("support vector machines", JobKind::Single, tx);
        j.deadline = Some(Instant::now() - std::time::Duration::from_millis(1));
        svc.try_submit(j)
            .unwrap_or_else(|_| panic!("submit refused"));
        let (status, body) = rx.recv().unwrap();
        assert_eq!(status, 504);
        assert!(body.contains("deadline expired"));
    }
}
