//! The deployment every workload runs against: a 4-shard on-disk
//! `ShardedStore` with the parallel executor, behind a WAL-durable
//! `PipelinedStore` (batch 64, a checkpoint after every batch), served
//! by one `cpdb_serve::Database`. Simulated round-trip latency is zero
//! everywhere, so the numbers are real CPU and I/O.

use cpdb_core::{
    DurabilityMode, PipelineConfig, PipelinedStore, ProvRecord, ProvStore, ShardedStore,
};
use cpdb_serve::Database;
use cpdb_storage::{DiskBackend, Meter, MeteredBackend, Wal};
use cpdb_tree::Path;
use std::path::{Path as FsPath, PathBuf};
use std::sync::Arc;
use std::time::Duration;

pub const SHARDS: usize = 4;
pub const BATCH: usize = 64;
/// Records per `insert_batch` call when a workload bulk-loads its
/// initial data straight into the sharded store.
pub const BULK_CHUNK: usize = 4096;

pub type Res<T> = Result<T, String>;

pub fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

pub struct Deployment {
    pub dir: PathBuf,
    pub sharded: Arc<ShardedStore>,
    pub pipe: Arc<PipelinedStore>,
    pub db: Database,
    /// Syncs of the WAL file (shard syncs live in the shard meters).
    pub wal_meter: Arc<Meter>,
}

fn zero_latency(store: &dyn ProvStore) {
    store.set_latency(Duration::ZERO, Duration::ZERO);
    store.set_batch_row_latency(Duration::ZERO);
}

impl Deployment {
    /// Creates an empty store under `dir`, split into [`SHARDS`] key
    /// ranges at the given containers' boundaries.
    pub fn create_store(dir: &FsPath, containers: &[Path]) -> Res<Arc<ShardedStore>> {
        let boundaries = ShardedStore::split_points(containers, SHARDS);
        let store = ShardedStore::on_disk(dir.join("store"), boundaries, true)
            .map_err(err("create store"))?
            .with_parallel_executor();
        zero_latency(&store);
        Ok(Arc::new(store))
    }

    /// Loads `records` straight into `store` in [`BULK_CHUNK`]-record
    /// batches, then checkpoints.
    pub fn bulk_load(store: &ShardedStore, records: &[ProvRecord]) -> Res<()> {
        for chunk in records.chunks(BULK_CHUNK) {
            store.insert_batch(chunk).map_err(err("bulk load"))?;
        }
        store.checkpoint().map_err(err("checkpoint"))
    }

    /// Puts the durable pipeline and the serving front over `sharded`
    /// (replaying any WAL tail left under `dir`).
    pub fn serve(dir: &FsPath, sharded: Arc<ShardedStore>) -> Res<Deployment> {
        let wal_meter = Arc::new(Meter::new());
        let backend = DiskBackend::open(dir.join("prov.wal")).map_err(err("open wal"))?;
        let wal = Wal::open(Arc::new(MeteredBackend::new(backend, wal_meter.clone())))
            .map_err(err("open wal"))?;
        let inner: Arc<dyn ProvStore> = sharded.clone();
        let pipe = PipelinedStore::spawn_with_durability(
            inner,
            PipelineConfig::batched(BATCH),
            DurabilityMode::Wal(wal),
        )
        .map_err(err("spawn pipeline"))?;
        zero_latency(&pipe);
        let pipe = Arc::new(pipe);
        let db = Database::new(pipe.clone());
        Ok(Deployment { dir: dir.to_owned(), sharded, pipe, db, wal_meter })
    }

    /// Reopens a deployment closed by [`Deployment::close`].
    pub fn reopen(dir: &FsPath) -> Res<Deployment> {
        let store = ShardedStore::open_disk(dir.join("store"))
            .map_err(err("reopen store"))?
            .with_parallel_executor();
        zero_latency(&store);
        Self::serve(dir, Arc::new(store))
    }

    /// Drains the pipeline, checkpoints and shuts everything down.
    pub fn close(self) -> Res<()> {
        self.pipe.flush().map_err(err("flush"))?;
        self.pipe.checkpoint().map_err(err("checkpoint"))?;
        Ok(())
    }

    /// Sum over shards of one engine-meter counter.
    pub fn shard_sum(&self, f: impl Fn(&Meter) -> u64) -> u64 {
        (0..self.sharded.shard_count()).map(|i| f(self.sharded.shard_engine(i).meter())).sum()
    }

    /// Physical bytes of the deployment's files per live record.
    pub fn bytes_per_record(&self) -> f64 {
        crate::stats::dir_bytes(&self.dir) as f64 / self.sharded.len().max(1) as f64
    }
}

/// Runs `f` and returns its result with the elapsed time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = std::time::Instant::now();
    let out = f();
    (out, t.elapsed())
}
