//! The router side of fleet serving: a [`RemoteShardedModel`] is a
//! [`ModelBackend`] whose φ lives in `topmine serve-shard` processes.
//!
//! The split follows the parameter-server observation that only one part
//! of a fitted model is big: φ. The router loads everything *else* from
//! its own copy of the bundle into the one in-memory model type, a
//! [`FrozenModel`] without φ — vocabulary, the phrase lexicon, display
//! tables, hyperparameters, and the shard starts that route each word —
//! so `prepare`, `segment`, and response rendering are the in-process
//! model's own code, and exactly one operation crosses the wire: the φ
//! gather.
//!
//! That one operation is shaped for the network. A batch gather (the
//! union of a whole dispatch batch's distinct words, PR 8) is grouped by
//! owning shard and sent as **one `GatherPhiBatch` frame per shard**,
//! pipelined over the per-shard pooled connection ([`ShardClient`]); the
//! shard replies with the requested φ columns as raw `f64` bits,
//! word-major, and the router copies each word's K values into its row of
//! the dense word-major table the gather promises. So the wire cost of
//! serving a batch of B documents against S shards is ≤ S round-trips
//! regardless of B — the comms analogue of the in-process batch
//! amortization — and every value arrives bit-identical to the
//! monolith's.
//!
//! Failures surface as [`BackendError`]s from the gather; the dispatcher
//! maps them to 503/504 responses. Health and per-shard counters feed
//! `/healthz` and `/metrics` through [`ModelBackend::fleet_status_json`]
//! and the fleet metric families.

use crate::backend::{BackendError, ModelBackend};
use crate::frozen::FrozenModel;
use crate::pool::{ExpectedShard, PoolConfig, ShardClient, ShardHealth};
use crate::sharded::{shard_of, shard_ranges};
use crate::wire::{self, Opcode};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Format tag reported by a fleet router backend (nothing is persisted
/// under this tag; the on-disk artifact is the sharded bundle).
pub const FLEET_MODEL_FORMAT: &str = "topmine-fleet/1";

/// How long `/healthz` waits on each shard's health ping.
const HEALTH_PING_TIMEOUT: Duration = Duration::from_millis(500);

/// A sharded model whose φ blocks live in remote shard processes.
pub struct RemoteShardedModel {
    /// The model without φ, with the bundle's shard starts.
    local: FrozenModel,
    clients: Vec<ShardClient>,
}

impl RemoteShardedModel {
    /// Load the bundle at `dir` without φ and attach to one shard process
    /// per `addrs` entry — `addrs[i]` must serve shard `i`. Every shard is
    /// handshaken eagerly, so a wrong address, a version skew, or a digest
    /// mismatch fails loudly at startup instead of on the first query.
    pub fn connect(dir: &Path, addrs: &[String], config: PoolConfig) -> io::Result<Self> {
        let router = Self::connect_lazy(dir, addrs, config)?;
        for client in &router.clients {
            let health = client.ping(HEALTH_PING_TIMEOUT.max(Duration::from_secs(2)));
            if !health.ok {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!(
                        "fleet shard {} at {} failed its startup health check: {}",
                        health.shard, health.addr, health.detail
                    ),
                ));
            }
        }
        Ok(router)
    }

    /// Like [`RemoteShardedModel::connect`], but without the startup
    /// health check — shards may come up after the router.
    pub fn connect_lazy(dir: &Path, addrs: &[String], config: PoolConfig) -> io::Result<Self> {
        let local = FrozenModel::load_without_phi(dir)?;
        let starts = local.shard_starts();
        if addrs.len() != starts.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "bundle has {} shards but {} fleet addresses were given",
                    starts.len(),
                    addrs.len()
                ),
            ));
        }
        // Every shard must advertise the digest of the bundle this view
        // was loaded (and verified) from.
        let digest = local
            .bundle_digest()
            .expect("a bundle loaded from disk carries its digest");
        let n_topics = local.n_topics() as u32;
        let clients = addrs
            .iter()
            .zip(shard_ranges(starts, local.vocab_size()))
            .enumerate()
            .map(|(i, (addr, range))| {
                ShardClient::new(
                    ExpectedShard {
                        index: i,
                        lo: range.start,
                        hi: range.end,
                        n_topics,
                        digest,
                    },
                    addr.clone(),
                    config.clone(),
                )
            })
            .collect();
        Ok(Self { local, clients })
    }

    /// Ping every shard and return the per-shard health snapshot.
    pub fn health(&self) -> Vec<ShardHealth> {
        self.clients
            .iter()
            .map(|c| c.ping(HEALTH_PING_TIMEOUT))
            .collect()
    }
}

impl ModelBackend for RemoteShardedModel {
    fn local(&self) -> &FrozenModel {
        &self.local
    }

    fn format_tag(&self) -> &'static str {
        FLEET_MODEL_FORMAT
    }

    /// One frame per owning shard, all shards in flight at once. The
    /// response splice keeps the gather's contract exactly: entry
    /// `(j, t)` of the returned table is the trained `φ[t][words[j]]`,
    /// bit-identical to the in-process gather (values cross the wire as
    /// raw `f64` bits and are never transformed).
    fn try_gather_phi_batch(
        &self,
        words: &[u32],
        deadline: Option<Instant>,
    ) -> Result<Vec<f64>, BackendError> {
        crate::metrics::serve_metrics()
            .sharded_gather_columns
            .record(words.len() as u64);
        let k = self.local.n_topics();
        let n = words.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        // Group requested words by owning shard. Ids go out sorted per
        // shard; `rows` remembers where each answer lands in the output
        // table.
        let n_shards = self.clients.len();
        let mut ids: Vec<Vec<u32>> = vec![Vec::new(); n_shards];
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); n_shards];
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&j| words[j as usize]);
        for &j in &order {
            let w = words[j as usize];
            let s = shard_of(self.local.shard_starts(), w);
            ids[s].push(w);
            rows[s].push(j as usize);
        }

        // Fan out: start every shard's RPC before waiting on any, so the
        // S round-trips overlap instead of serializing.
        let mut started = Vec::with_capacity(n_shards);
        for (s, shard_ids) in ids.iter().enumerate() {
            if shard_ids.is_empty() {
                started.push(None);
                continue;
            }
            let call = self.clients[s].start_call(
                Opcode::GatherPhiBatch,
                wire::encode_gather(shard_ids),
                Opcode::PhiBlock,
                deadline,
            )?;
            started.push(Some(call));
        }

        let mut out = vec![0.0f64; k * n];
        for (s, call) in started.into_iter().enumerate() {
            let Some(call) = call else { continue };
            let frame = self.clients[s].finish_call(call)?;
            let m = ids[s].len();
            let values = wire::decode_phi_block(&frame.payload, m, k).map_err(|e| {
                BackendError::Protocol {
                    shard: s,
                    addr: self.clients[s].addr().to_string(),
                    detail: e.to_string(),
                }
            })?;
            for (answer, &j) in values.chunks_exact(k).zip(&rows[s]) {
                out[j * k..(j + 1) * k].copy_from_slice(answer);
            }
        }
        Ok(out)
    }

    fn fleet_status_json(&self) -> Option<String> {
        let mut out = String::from("[");
        for (i, h) in self.health().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"shard\":{},\"addr\":{},\"ok\":{},\"last_check_ms\":{:.3},\
                 \"consecutive_failures\":{}{}}}",
                h.shard,
                crate::http::json_string(&h.addr),
                h.ok,
                h.last_check.as_secs_f64() * 1e3,
                h.consecutive_failures,
                if h.detail.is_empty() {
                    String::new()
                } else {
                    format!(",\"detail\":{}", crate::http::json_string(&h.detail))
                }
            ));
        }
        out.push(']');
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::tests::tiny_model;
    use crate::shard::{ShardServer, ShardServerHandle, ShardSlice};

    /// Save `model` sharded `n_shards` ways into a temp dir, spawn one
    /// in-process shard server per shard, and connect a router to them.
    pub(crate) fn spawn_fleet(
        tag: &str,
        n_shards: usize,
        config: PoolConfig,
    ) -> (
        RemoteShardedModel,
        Vec<ShardServerHandle>,
        std::path::PathBuf,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "topmine-fleet-{tag}-{}-{n_shards}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let model = tiny_model();
        crate::ShardedModel::from_frozen(&model, n_shards)
            .unwrap()
            .save(&dir)
            .unwrap();
        let mut handles = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..n_shards {
            let slice = ShardSlice::load(&dir, i).unwrap();
            let handle = ShardServer::bind("127.0.0.1:0", slice)
                .unwrap()
                .spawn()
                .unwrap();
            addrs.push(handle.addr().to_string());
            handles.push(handle);
        }
        let router = RemoteShardedModel::connect(&dir, &addrs, config).unwrap();
        (router, handles, dir)
    }

    #[test]
    fn router_gathers_bit_identically_to_the_monolith() {
        let model = tiny_model();
        let (router, handles, dir) = spawn_fleet("gather", 3, PoolConfig::default());
        let v = model.vocab_size() as u32;
        let all: Vec<u32> = (0..v).collect();
        let scrambled: Vec<u32> = (0..v).rev().chain(0..v / 2).collect();
        for words in [&all[..], &scrambled[..], &[0][..], &[][..]] {
            let remote = router.try_gather_phi_batch(words, None).unwrap();
            let local = model.gather_phi_batch(words);
            assert_eq!(
                remote.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                local.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            );
        }
        for h in handles {
            h.shutdown();
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn wrong_fleet_size_is_rejected_at_connect() {
        let dir = std::env::temp_dir().join(format!("topmine-fleet-size-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        crate::ShardedModel::from_frozen(&tiny_model(), 2)
            .unwrap()
            .save(&dir)
            .unwrap();
        let err = match RemoteShardedModel::connect_lazy(
            &dir,
            &["127.0.0.1:1".to_string()],
            PoolConfig::default(),
        ) {
            Ok(_) => panic!("connect_lazy accepted a one-address fleet for a 2-shard bundle"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("2 shards"), "{err}");
        let _ = std::fs::remove_dir_all(dir);
    }
}
