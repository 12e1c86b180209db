//! The real pipeline, driven through each crate's public API:
//! `qchem` generates blocks, `eri-store` compresses them into a durable
//! store, `eri-server` mounts it behind a PTRF Unix socket and
//! `RemoteClient` reads values back.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use eri_server::{
    ClientConfig, Endpoint, RemoteClient, ServerConfig, ServerHandle, StopHandle, TransportServer,
};
use eri_store::{StoreReader, StoreWriter, HEADER_LEN_V2, INDEX_ENTRY_V2};
use pastri::BlockGeometry;
use qchem::basis::BfConfig;
use qchem::dataset::{DatasetSpec, EriDataset};
use qchem::molecule::Molecule;

use crate::plan::ClientPlan;
use crate::trace::{Recorder, TimingSource};

/// The paper's default absolute error bound.
pub const EB: f64 = 1e-10;

/// The benzene vdW cluster the repo's figure harness uses: four images
/// 4.5 Å apart, so inter-fragment quartets dominate as in production.
const CLUSTER_COPIES: usize = 4;
const CLUSTER_SPACING: f64 = 4.5;
/// Quartet-sampling seed of the figure harness's benzene dataset.
const DATA_SEED: u64 = 0x5eed + 7;

/// One of the two analytic datasets, ~16 MB raw each.
#[derive(Debug, Clone, Copy)]
pub struct Kind {
    pub name: &'static str,
    pub config: fn() -> BfConfig,
    pub blocks: usize,
    /// Blocks per `append_blocks` batch (~650 KB raw).
    pub ingest_batch: usize,
}

pub const DD: Kind = Kind {
    name: "dddd",
    config: BfConfig::dd_dd,
    blocks: 1600,
    ingest_batch: 64,
};
pub const FF: Kind = Kind {
    name: "ffff",
    config: BfConfig::ff_ff,
    blocks: 200,
    ingest_batch: 8,
};

impl Kind {
    /// Blocks between durable checkpoints: the whole store, so its one
    /// checkpoint falls in the op that appends its last batch (4% of
    /// ops). A checkpoint per batch would put an fsync pair in every op,
    /// and op latency would follow the disk's fsync stalls more than
    /// the pipeline; a few per store would put the fsync ops right at
    /// the p90.
    #[must_use]
    pub fn checkpoint_every(&self) -> usize {
        self.blocks
    }

    #[must_use]
    pub fn geometry(&self) -> BlockGeometry {
        BlockGeometry::from_dims((self.config)().dims())
    }

    /// Analytic generation of a fixed quartet sample. The data does not
    /// vary with the workload seed: a different sample moves the
    /// compression ratio and decode cost by several percent, which
    /// would swamp the run-to-run noise the bounds are set against.
    #[must_use]
    pub fn generate(&self) -> EriDataset {
        EriDataset::generate(&DatasetSpec {
            molecule: Molecule::benzene().cluster(CLUSTER_COPIES, CLUSTER_SPACING),
            config: (self.config)(),
            max_blocks: self.blocks,
            seed: DATA_SEED,
        })
    }
}

/// Builds a store of `kind` from `ds` in its batches; `on_batch` sees
/// each batch's append time. Returns the `finish` time.
pub fn build_store(
    path: &Path,
    ds: &EriDataset,
    kind: &Kind,
    durable: bool,
    mut on_batch: impl FnMut(&[f64], Duration),
) -> Result<Duration, String> {
    let geom = kind.geometry();
    let mut w = if durable {
        StoreWriter::create_durable(path, geom, EB, kind.checkpoint_every())
    } else {
        StoreWriter::create(path, geom, EB)
    }
    .map_err(|e| format!("create {}: {e}", path.display()))?;
    for chunk in ds.values.chunks(kind.ingest_batch * geom.block_size()) {
        let t = Instant::now();
        w.append_blocks(chunk).map_err(|e| format!("append: {e}"))?;
        on_batch(chunk, t.elapsed());
    }
    let t = Instant::now();
    w.finish().map_err(|e| format!("finish: {e}"))?;
    Ok(t.elapsed())
}

/// `(offset, length)` of every block's container, from the store's
/// index (layout documented in `eri_store`).
pub fn store_index(path: &Path) -> Result<Vec<(u64, u64)>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let u64_at = |o: usize| -> Result<u64, String> {
        bytes
            .get(o..o + 8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8-byte slice")))
            .ok_or_else(|| "store shorter than its header".to_string())
    };
    let (n, at) = (u64_at(32)? as usize, u64_at(40)? as usize);
    (0..n)
        .map(|i| {
            let e = at + i * INDEX_ENTRY_V2 as usize;
            let (off, len) = (u64_at(e)?, u64_at(e + 8)?);
            if off < HEADER_LEN_V2 || (off + len) as usize > at {
                return Err(format!("index entry {i} out of bounds"));
            }
            Ok((off, len))
        })
        .collect()
}

/// What every served value is checked against: a direct `pastri`
/// decode of each stored container, and whether that decode holds the
/// error bound against the generated original.
pub struct Reference {
    pub containers: Vec<Vec<u8>>,
    pub values: Vec<Vec<f64>>,
    pub within_eb: Vec<bool>,
}

impl Reference {
    pub fn build(path: &Path, original: &EriDataset) -> Result<Self, String> {
        let file = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let index = store_index(path)?;
        let bs = original.config.block_size();
        let mut r = Reference {
            containers: Vec::new(),
            values: Vec::new(),
            within_eb: Vec::new(),
        };
        for (b, &(off, len)) in index.iter().enumerate() {
            let container = file[off as usize..(off + len) as usize].to_vec();
            let values =
                pastri::decompress(&container).map_err(|e| format!("decode block {b}: {e}"))?;
            let orig = &original.values[b * bs..(b + 1) * bs];
            r.within_eb.push(
                values.len() == bs && values.iter().zip(orig).all(|(x, o)| (x - o).abs() <= EB),
            );
            r.containers.push(container);
            r.values.push(values);
        }
        Ok(r)
    }

    /// Is `got` bit-identical to the direct decode of block `id`, and
    /// is that decode within the error bound?
    #[must_use]
    pub fn accepts(&self, id: u64, got: &[f64]) -> bool {
        let (Some(want), Some(&ok)) = (
            self.values.get(id as usize),
            self.within_eb.get(id as usize),
        ) else {
            return false;
        };
        ok && want.len() == got.len()
            && want
                .iter()
                .zip(got)
                .fold(0u64, |acc, (a, b)| acc | (a.to_bits() ^ b.to_bits()))
                == 0
    }
}

/// Opens a store as a fresh clean reader and verifies every block CRC.
pub fn verify_clean(path: &Path) -> Result<(), String> {
    let report = StoreReader::open(path)
        .and_then(|mut r| r.verify())
        .map_err(|e| format!("verify {}: {e}", path.display()))?;
    if report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{}: {} damaged block(s)",
            path.display(),
            report.damaged.len()
        ))
    }
}

/// Timing hooks for a traced mount: the span recorder plus the log of
/// source-read offsets.
pub type Probe = (Arc<Recorder>, Arc<Mutex<Vec<u64>>>);

/// Mounts one store with `cache_bytes` of cache, optionally over a
/// [`TimingSource`].
pub fn mount(
    path: &Path,
    cache_bytes: usize,
    probe: Option<&Probe>,
) -> Result<ServerHandle, String> {
    let cfg = ServerConfig {
        cache_bytes,
        ..ServerConfig::default()
    };
    let handle = match probe {
        None => ServerHandle::open(&[path], &cfg),
        Some((rec, offsets)) => ServerHandle::open_with_sources(&[path], &cfg, &mut |p| {
            let f = std::fs::File::open(p)?;
            Ok(
                Box::new(TimingSource::new(f, Arc::clone(rec), Arc::clone(offsets)))
                    as eri_server::BoxedSource,
            )
        }),
    };
    let handle = handle.map_err(|e| format!("mount {}: {e}", path.display()))?;
    if let Some((rec, offsets)) = probe {
        // Mount reads headers and indexes; only block reads matter.
        rec.take();
        offsets.lock().expect("offset log poisoned").clear();
    }
    Ok(handle)
}

/// A mounted store served over a Unix socket, with connected clients.
pub struct Served {
    pub handle: Arc<ServerHandle>,
    pub stop: StopHandle,
    join: Option<JoinHandle<std::io::Result<u64>>>,
    pub clients: Vec<RemoteClient>,
}

impl Served {
    pub fn start(handle: ServerHandle, socket: &Path, clients: usize) -> Result<Self, String> {
        let handle = Arc::new(handle);
        let ep = Endpoint::Unix(socket.to_path_buf());
        let server =
            TransportServer::bind(&ep, Arc::clone(&handle)).map_err(|e| format!("bind: {e}"))?;
        let local = server.local_endpoint();
        let stop = server.stop_handle();
        let join = Some(Arc::new(server).spawn(None));
        let mut served = Served {
            handle,
            stop,
            join,
            clients: Vec::new(),
        };
        for _ in 0..clients {
            let c = RemoteClient::connect(std::slice::from_ref(&local), ClientConfig::default())
                .map_err(|e| format!("connect: {e}"))?;
            served.clients.push(c);
        }
        Ok(served)
    }

    /// Closes the clients, stops the listener and joins every handler.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.clients.clear();
        self.stop.stop();
        match self.join.take().map(JoinHandle::join) {
            Some(Ok(Ok(_))) | None => Ok(()),
            Some(Ok(Err(e))) => Err(format!("serve loop: {e}")),
            Some(Err(_)) => Err("serve loop panicked".into()),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(j) = self.join.take() {
            self.clients.clear();
            self.stop.stop();
            let _ = j.join();
        }
    }
}

/// Outcome of a batch of read ops.
#[derive(Debug, Default)]
pub struct ReadTally {
    pub lat_us: Vec<f64>,
    /// Per op: completion time in seconds since the loop started, and
    /// the bytes it delivered.
    pub done: Vec<(f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub bytes: u64,
}

impl ReadTally {
    pub fn absorb(&mut self, other: ReadTally) {
        self.lat_us.extend(other.lat_us);
        self.done.extend(other.done);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.bytes += other.bytes;
    }
}

/// One checked remote read op: latency in µs, and whether every value
/// came back and matched the reference.
pub fn remote_op(
    client: &mut RemoteClient,
    ids: &[u64],
    reference: &Reference,
) -> (f64, bool, u64) {
    let t = Instant::now();
    let reply = client.read_blocks(ids);
    let us = t.elapsed().as_secs_f64() * 1e6;
    let mut bytes = 0;
    let ok = match reply {
        Ok(blocks) => {
            blocks.len() == ids.len()
                && blocks.iter().zip(ids).all(|(b, &id)| match b {
                    Ok(v) => {
                        bytes += 8 * v.len() as u64;
                        reference.accepts(id, v)
                    }
                    Err(_) => false,
                })
        }
        Err(_) => false,
    };
    (us, ok, bytes)
}

/// Closed loop: each client (one thread each) issues its plan's ops
/// back to back, from its cursor, until `limit` elapses or `max_ops`
/// ops per client are done. Cursors advance and wrap.
pub fn read_loop(
    clients: &mut [RemoteClient],
    plans: &[ClientPlan],
    cursors: &mut [usize],
    reference: &Reference,
    limit: Duration,
    max_ops: usize,
) -> ReadTally {
    let start = Instant::now();
    let tallies: Vec<ReadTally> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .iter_mut()
            .zip(plans)
            .zip(cursors.iter_mut())
            .map(|((client, plan), cursor)| {
                s.spawn(move || {
                    let mut t = ReadTally::default();
                    for _ in 0..max_ops {
                        if start.elapsed() >= limit {
                            break;
                        }
                        let ids = &plan[*cursor % plan.len()];
                        *cursor += 1;
                        let (us, ok, bytes) = remote_op(client, ids, reference);
                        t.lat_us.push(us);
                        t.done.push((start.elapsed().as_secs_f64(), bytes));
                        t.attempted += 1;
                        t.failed += u64::from(!ok);
                        t.bytes += bytes;
                    }
                    t
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = ReadTally::default();
    for t in tallies {
        all.absorb(t);
    }
    all
}

/// Working directory for one run, inside the checkout.
#[must_use]
pub fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()))
}
